//! `parambench-benchmark`: see the library documentation and `README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(parambench_benchmark::main_with(&args));
}
