//! Tells the benchmark whether it was compiled without optimization, so
//! that it can refuse to measure (`cfg(unoptimized)`).

fn main() {
    println!("cargo::rerun-if-changed=build.rs");
    println!("cargo::rustc-check-cfg=cfg(unoptimized)");
    if std::env::var("OPT_LEVEL").as_deref() == Ok("0") {
        println!("cargo::rustc-cfg=unoptimized");
    }
}
