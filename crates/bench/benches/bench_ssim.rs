//! SSIM benchmarks (Table XII's metric) including the SSIM-vs-MSE ablation
//! the paper motivates ("SSIM strikes a good balance between accuracy and
//! runtime performance"). Each `f32` image entry has a `bitmap_` partner
//! timing the bit-cell raster and popcount kernel text comparisons use.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use idnre_render::{mse, render_text, ssim, ssim_strings, TextBitmap};

fn bench_render(c: &mut Criterion) {
    c.bench_function("render_brand_domain", |b| {
        b.iter(|| render_text(black_box("google.com")))
    });
    c.bench_function("render_cjk_domain", |b| {
        b.iter(|| render_text(black_box("北京交通大学.com")))
    });
    c.bench_function("bitmap_brand_domain", |b| {
        b.iter(|| TextBitmap::new(black_box("google.com")))
    });
    c.bench_function("bitmap_cjk_domain", |b| {
        b.iter(|| TextBitmap::new(black_box("北京交通大学.com")))
    });
}

fn bench_metrics(c: &mut Criterion) {
    let brand = render_text("google.com");
    let spoof = render_text("gõõgle.com");
    c.bench_function("ssim_pair_10_chars", |b| {
        b.iter(|| ssim(black_box(&brand), black_box(&spoof)).unwrap())
    });
    let (brand_bits, spoof_bits) = (TextBitmap::new("google.com"), TextBitmap::new("gõõgle.com"));
    c.bench_function("bitmap_ssim_pair_10_chars", |b| {
        b.iter(|| black_box(&brand_bits).ssim(black_box(&spoof_bits)).unwrap())
    });
    c.bench_function("mse_pair_10_chars", |b| {
        b.iter(|| mse(black_box(&brand), black_box(&spoof)).unwrap())
    });
}

/// The Table XII ladder end-to-end (render + compare), per probe class.
fn bench_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssim_ladder");
    for (name, spoof) in [
        ("identical", "gооgle.com"),
        ("one-mark", "goögle.com"),
        ("two-marks", "gõõgle.com"),
        ("unrelated", "example.com"),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| ssim_strings(black_box("google.com"), black_box(spoof)))
        });
    }
    group.finish();
}

/// Ablation: MSE mis-ranks diacritic variants relative to SSIM — assert the
/// ordering once, then time the comparison batch.
fn bench_metric_ablation(c: &mut Criterion) {
    let brand = render_text("google.com");
    let near = render_text("goögle.com"); // visually near
    let far = render_text("gøøgle.com"); // visually farther
    let ssim_near = ssim(&brand, &near).unwrap();
    let ssim_far = ssim(&brand, &far).unwrap();
    assert!(ssim_near > ssim_far, "ssim must rank near above far");
    c.bench_function("ablation_ssim_batch", |b| {
        b.iter(|| {
            black_box(ssim(&brand, &near).unwrap());
            black_box(ssim(&brand, &far).unwrap());
        })
    });
    c.bench_function("ablation_mse_batch", |b| {
        b.iter(|| {
            black_box(mse(&brand, &near).unwrap());
            black_box(mse(&brand, &far).unwrap());
        })
    });
    let [brand, near, far] = ["google.com", "goögle.com", "gøøgle.com"].map(TextBitmap::new);
    c.bench_function("ablation_bitmap_ssim_batch", |b| {
        b.iter(|| {
            black_box(brand.ssim(&near).unwrap());
            black_box(brand.ssim(&far).unwrap());
        })
    });
}

/// Fast Criterion profile: the full suite spans ~80 benchmarks, so each one
/// uses short warmup/measurement windows to keep a whole-workspace
/// `cargo bench` run in the minutes range.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}
criterion_group! {
    name = benches;
    config = quick();
    targets = bench_render, bench_metrics, bench_ladder, bench_metric_ablation
}
criterion_main!(benches);
