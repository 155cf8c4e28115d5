//! Names `double`, so the clean crate's only `pub fn` has a user.

#[test]
fn doubles() {
    assert_eq!(clean::double(2), 4);
}
