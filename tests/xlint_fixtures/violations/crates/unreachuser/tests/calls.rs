//! Another crate's integration test naming `test_only`.

#[test]
fn calls_test_only() {
    assert_eq!(unreached::test_only(), 3);
}
