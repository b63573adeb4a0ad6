//! `gcx-paper <experiment>... [--smoke]`: the paper's figures, each row a
//! median and its IQR over repeated runs (see the library's docs).

fn main() -> std::process::ExitCode {
    gcx_bench::cli(std::env::args().skip(1))
}
