//! Runs every reproduction experiment in order (the full §8 evaluation).

use dangsan_bench::experiments as e;

fn main() {
    for (name, f) in [
        ("effectiveness", e::effectiveness as fn() -> String),
        ("fig9", e::fig9),
        ("fig10", e::fig10),
        ("fig11", e::fig11),
        ("fig12", e::fig12),
        ("table1", e::table1),
        ("servers", e::servers),
        ("ablations", e::ablations),
        ("free_shape", e::free_shape),
    ] {
        eprintln!("[reproduce_all] running {name}...");
        println!("{}", f());
    }
}
