//! Criterion benchmarks for the from-scratch Reed-Solomon codec.
//!
//! The paper leans on Plank et al. (FAST'09) for the claim that "modern
//! erasure code implementations are sufficiently efficient that encoding
//! and decoding can be performed fast enough"; these benchmarks quantify
//! our implementation: encode/decode/recover throughput for the default
//! `(4, 12)` policy across the paper's object-size range, plus alternate
//! code parameters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasure::{Codec, Fragment};

fn value(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode_k4_n12");
    for size in [100 * 1024usize, 1024 * 1024, 10 * 1024 * 1024] {
        let codec = Codec::new(4, 12).unwrap();
        let v = value(size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}KiB", size / 1024)),
            &v,
            |b, v| b.iter(|| codec.encode(v)),
        );
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode_k4_n12");
    let size = 100 * 1024;
    let codec = Codec::new(4, 12).unwrap();
    let v = value(size);
    let frags = codec.encode(&v);
    g.throughput(Throughput::Bytes(size as u64));

    // Systematic fast path: all data fragments present.
    let data: Vec<Fragment> = frags[..4].to_vec();
    g.bench_function("data_fragments", |b| {
        b.iter(|| codec.decode(&data, size).unwrap())
    });
    // Worst case: parity-only decode (full matrix inversion + multiply).
    let parity: Vec<Fragment> = frags[8..].to_vec();
    g.bench_function("parity_fragments", |b| {
        b.iter(|| codec.decode(&parity, size).unwrap())
    });
    g.finish();
}

fn bench_recover(c: &mut Criterion) {
    // The sibling-fragment-recovery primitive: regenerate all eight
    // missing fragments from four survivors.
    let mut g = c.benchmark_group("recover_k4_n12");
    let size = 100 * 1024;
    let codec = Codec::new(4, 12).unwrap();
    let v = value(size);
    let frags = codec.encode(&v);
    let survivors = vec![
        frags[1].clone(),
        frags[4].clone(),
        frags[7].clone(),
        frags[10].clone(),
    ];
    let missing: Vec<u8> = vec![0, 2, 3, 5, 6, 8, 9, 11];
    g.throughput(Throughput::Bytes((missing.len() * size / 4) as u64));
    g.bench_function("all_eight_missing", |b| {
        b.iter(|| codec.recover(&survivors, &missing, size).unwrap())
    });
    g.bench_function("single_missing", |b| {
        b.iter(|| codec.recover(&survivors, &[6], size).unwrap())
    });
    g.finish();
}

fn bench_gf_mul_acc(c: &mut Criterion) {
    // The codec's inner loop: dst[i] ^= scalar * src[i] over GF(2^8).
    let mut g = c.benchmark_group("gf_mul_acc");
    let src = value(64 * 1024);
    let mut dst = vec![0u8; 64 * 1024];
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("scalar_generic", |b| {
        b.iter(|| erasure::gf::mul_acc(&mut dst, &src, 0x53))
    });
    g.bench_function("scalar_one_xor_path", |b| {
        b.iter(|| erasure::gf::mul_acc(&mut dst, &src, 1))
    });
    g.finish();
}

fn bench_gf_mat_mul(c: &mut Criterion) {
    // The fused kernel behind every encode, decode and recovery, on one
    // 100 KiB value's (4,12) stripe rows: 4 sources -> 8 rows is the
    // parity of an encode, 4 -> 4 the data rows of a parity decode.
    let mut g = c.benchmark_group("gf_mat_mul");
    let len = 25_600;
    let srcs: Vec<Vec<u8>> = (0..4u8)
        .map(|i| value(len).iter().map(|b| b.wrapping_add(i)).collect())
        .collect();
    let mut out = Vec::with_capacity(8 * len);
    for rows in [8usize, 4] {
        let coef: Vec<u8> = (0..4 * rows).map(|i| (i * 37 + 2) as u8).collect();
        g.throughput(Throughput::Bytes((rows * len) as u64));
        g.bench_function(format!("4_sources_{rows}_rows"), |b| {
            b.iter(|| {
                out.clear();
                erasure::gf::mat_mul(&mut out, &coef, 4, len, |i| &srcs[i]);
            })
        });
    }
    g.finish();
}

fn bench_code_parameters(c: &mut Criterion) {
    // How codec construction (generator build + inversion) scales with n.
    let mut g = c.benchmark_group("codec_construction");
    for (k, n) in [(4usize, 12usize), (8, 24), (16, 48), (32, 96)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &(k, n),
            |b, &(k, n)| b.iter(|| Codec::new(k, n).unwrap()),
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_encode, bench_decode, bench_recover, bench_gf_mul_acc,
        bench_gf_mat_mul, bench_code_parameters
}
criterion_main!(benches);
