//! Property-based tests for the config machinery.

use gcx_config::{parse_yaml, Template};
use gcx_core::value::Value;
use proptest::prelude::*;

proptest! {
    /// The YAML parser never panics on arbitrary input.
    #[test]
    fn yaml_parser_never_panics(text in ".{0,200}") {
        let _ = parse_yaml(&text);
    }

    /// The template parser never panics, and parsed templates render all
    /// their variables when every variable is provided.
    #[test]
    fn template_total_when_vars_supplied(
        names in prop::collection::btree_set("[A-Z][A-Z0-9_]{0,8}", 1..5),
        text_bits in prop::collection::vec("[a-z :\\n]{0,10}", 0..5),
    ) {
        let mut text = String::new();
        for (i, name) in names.iter().enumerate() {
            if let Some(bit) = text_bits.get(i) { text.push_str(bit); }
            text.push_str(&format!("{{{{ {name} }}}}"));
        }
        let t = Template::parse(&text).unwrap();
        prop_assert_eq!(t.variables().len(), names.len());
        let vars = Value::map(names.iter().map(|n| (n.clone(), Value::Int(1))));
        t.render(&vars).unwrap();
    }

    /// Template parsing never panics on arbitrary input.
    #[test]
    fn template_parser_never_panics(text in ".{0,200}") {
        let _ = Template::parse(&text);
    }
}
