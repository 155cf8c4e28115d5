//! An example naming `example_only`.

fn main() {
    println!("{}", unreached::example_only());
}
