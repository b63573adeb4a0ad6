//! Property-based tests for gcx-core invariants.

use gcx_core::codec::{decode, encode, encoded_size};
use gcx_core::ids::{EndpointId, FunctionId, Uuid};
use gcx_core::payload::Payload;
use gcx_core::respec::ResourceSpec;
use gcx_core::shellres::ShellResult;
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy producing arbitrary (bounded-depth) `Value` trees.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::None),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Only finite floats: NaN breaks PartialEq-based roundtrip checking.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        ".{0,32}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            prop::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Value::Map),
        ]
    })
}

proptest! {
    /// Every value round-trips through the wire codec unchanged.
    #[test]
    fn codec_roundtrip(v in value_strategy()) {
        let bytes = encode(&v);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(&v, &back);
    }

    /// `encoded_size` exactly predicts the encoder's output length.
    #[test]
    fn encoded_size_is_exact(v in value_strategy()) {
        prop_assert_eq!(encode(&v).len(), encoded_size(&v));
    }

    /// The decoder never panics on arbitrary bytes — it returns an error or
    /// a value, even for hostile input.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Uuid text form always parses back to the same id.
    #[test]
    fn uuid_text_roundtrip(hi in any::<u64>(), lo in any::<u64>()) {
        let u = Uuid(((hi as u128) << 64) | lo as u128);
        let s = u.to_string();
        prop_assert_eq!(s.parse::<Uuid>().unwrap(), u);
    }

    /// A normalized resource spec is always internally consistent and its
    /// fields always satisfy the provided constraints.
    #[test]
    fn respec_normalization_consistent(
        nodes in prop::option::of(1u32..64),
        rpn in prop::option::of(1u32..64),
    ) {
        let spec = ResourceSpec { num_nodes: nodes, ranks_per_node: rpn, num_ranks: None };
        let n = spec.normalize().unwrap();
        prop_assert_eq!(n.num_ranks, n.num_nodes * n.ranks_per_node);
        if let Some(want) = nodes { prop_assert_eq!(n.num_nodes, want); }
        if let Some(want) = rpn { prop_assert_eq!(n.ranks_per_node, want); }
    }

    /// Snippet never returns more lines than requested and always returns a
    /// suffix of the input.
    #[test]
    fn snippet_is_bounded_suffix(lines in prop::collection::vec("[a-z]{0,10}", 0..50), n in 0usize..20) {
        let text = lines.join("\n");
        let snip = ShellResult::snippet(&text, n);
        prop_assert!(snip.lines().count() <= n);
        prop_assert!(text.ends_with(&snip));
    }

    /// Payload bytes — including a slice into a larger buffer — round-trip
    /// through the binary task-message framing byte-identical. The inline
    /// form carries the bytes; the reference form carries the hash and an
    /// empty body.
    #[test]
    fn payload_slice_roundtrips_through_wire_framing(
        buf in vec(any::<u8>(), 0..2048),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let start = (buf.len() as f64 * start_frac) as usize;
        let len = ((buf.len() - start) as f64 * len_frac) as usize;
        let whole = bytes::Bytes::from(buf);
        let slice = whole.slice(start..start + len);
        let payload = Payload::from_bytes(slice.clone());
        prop_assert_eq!(payload.as_slice(), &slice[..]);

        let mut spec = TaskSpec::new(FunctionId::random(), EndpointId::random());
        spec.payload = payload.clone();

        let inline = spec.to_message(true);
        let (back, is_ref) = TaskSpec::from_message(&inline).unwrap();
        prop_assert!(!is_ref);
        prop_assert_eq!(back.payload.as_slice(), payload.as_slice());
        prop_assert_eq!(back.payload.hash(), payload.hash());

        let by_ref = spec.to_message(false);
        let (back, is_ref) = TaskSpec::from_message(&by_ref).unwrap();
        prop_assert!(is_ref);
        prop_assert_eq!(back.payload.hash(), payload.hash());
        prop_assert!(back.payload.is_empty());
    }
}
