//! See `dangsan_bench::experiments::free_shape`.

fn main() {
    print!("{}", dangsan_bench::experiments::free_shape());
}
