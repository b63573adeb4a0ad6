//! Identity mapping: Globus identity → local account.
//!
//! "Every request from the Globus Compute service to start a user endpoint
//! includes the identity information of the user … The multi-user endpoint
//! retrieves the identity information and compares it against the mapping
//! file to a) determine if the user is authorized to access the endpoint;
//! and b) determine the local user account in which to spawn the user
//! endpoint" (§IV-A.2).
//!
//! Two mapper kinds, mirroring Globus Connect Server:
//! - **Expression mappings** (Listing 8): a `source` template selects a field
//!   of the identity document (`{username}`, `{domain}`, `{display_name}`),
//!   `match` is a fully-anchored regular expression over that field, and
//!   `output` is a template over the capture groups (`{0}` = first group)
//!   and identity fields. `ignore_case` applies the paper's "functions for
//!   common transformations (e.g., ignoring case)".
//! - **External callouts**: an arbitrary program (here: a closure) consulted
//!   per request, for sites that map via LDAP or databases.

use std::sync::Arc;

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::relite::Regex;

use crate::service::Identity;

/// Result of a mapping attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingOutcome {
    /// Mapped to this local account.
    Local(String),
    /// No rule matched: the user is not authorized on this endpoint.
    Denied,
}

/// One expression mapping rule (Listing 8).
#[derive(Debug, Clone)]
pub struct ExpressionMapping {
    /// Which identity field feeds the match, as a template (commonly
    /// `{username}`).
    pub source: String,
    /// Fully-anchored pattern applied to the source text.
    pub pattern: String,
    /// Output template over capture groups and identity fields.
    pub output: String,
    /// Case-insensitive matching.
    pub ignore_case: bool,
}

impl ExpressionMapping {
    /// The paper's example: map any `@uchicago.edu` identity to its local
    /// part.
    pub fn username_capture(domain: &str) -> Self {
        Self {
            source: "{username}".into(),
            pattern: format!("(.*)@{}", domain.replace('.', "\\.")),
            output: "{0}".into(),
            ignore_case: false,
        }
    }
}

/// An external-callout mapping program.
pub(crate) type CalloutFn = Arc<dyn Fn(&Identity) -> Option<String> + Send + Sync>;

enum Mapper {
    Expression(ExpressionMapping, Regex),
    Callout(CalloutFn),
}

/// An ordered set of mapping rules; the first match wins.
pub struct IdentityMapper {
    mappers: Vec<Mapper>,
}

impl Default for IdentityMapper {
    fn default() -> Self {
        Self::new()
    }
}

impl IdentityMapper {
    /// An empty mapper (denies everyone).
    pub fn new() -> Self {
        Self {
            mappers: Vec::new(),
        }
    }

    /// Append an expression mapping (compiling its pattern).
    pub fn add_expression(&mut self, m: ExpressionMapping) -> GcxResult<&mut Self> {
        let re = if m.ignore_case {
            Regex::new_ci(&m.pattern)
        } else {
            Regex::new(&m.pattern)
        }?;
        self.mappers.push(Mapper::Expression(m, re));
        Ok(self)
    }

    /// Append an external-callout mapper.
    pub fn add_callout(
        &mut self,
        f: impl Fn(&Identity) -> Option<String> + Send + Sync + 'static,
    ) -> &mut Self {
        self.mappers.push(Mapper::Callout(Arc::new(f)));
        self
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.mappers.len()
    }

    /// True if no rules are configured.
    pub fn is_empty(&self) -> bool {
        self.mappers.is_empty()
    }

    /// Map an identity. The first matching rule yields the local account;
    /// no match yields [`MappingOutcome::Denied`].
    pub fn map(&self, identity: &Identity) -> GcxResult<MappingOutcome> {
        for mapper in &self.mappers {
            match mapper {
                Mapper::Expression(m, re) => {
                    let source_text = render_field_template(&m.source, identity)?;
                    if let Some(caps) = re.full_match(&source_text) {
                        let local = render_output_template(&m.output, identity, &caps.groups)?;
                        if !local.is_empty() {
                            return Ok(MappingOutcome::Local(local));
                        }
                    }
                }
                Mapper::Callout(f) => {
                    if let Some(local) = f(identity) {
                        return Ok(MappingOutcome::Local(local));
                    }
                }
            }
        }
        Ok(MappingOutcome::Denied)
    }
}

fn identity_field(name: &str, identity: &Identity) -> GcxResult<String> {
    Ok(match name {
        "username" => identity.username.clone(),
        "domain" => identity.domain().to_string(),
        "local_part" => identity.local_part().to_string(),
        "display_name" => identity.display_name.clone(),
        "id" => identity.id.to_string(),
        other => {
            return Err(GcxError::InvalidConfig(format!(
                "identity mapping references unknown field '{other}'"
            )))
        }
    })
}

fn render_field_template(template: &str, identity: &Identity) -> GcxResult<String> {
    render_template(template, |name| {
        if name.chars().all(|c| c.is_ascii_digit()) {
            Err(GcxError::InvalidConfig(
                "capture groups are only valid in the output template".into(),
            ))
        } else {
            identity_field(name, identity)
        }
    })
}

fn render_output_template(
    template: &str,
    identity: &Identity,
    groups: &[Option<String>],
) -> GcxResult<String> {
    render_template(template, |name| {
        if let Ok(idx) = name.parse::<usize>() {
            groups.get(idx).cloned().flatten().ok_or_else(|| {
                GcxError::InvalidConfig(format!(
                    "output template references capture group {idx} which did not match"
                ))
            })
        } else {
            identity_field(name, identity)
        }
    })
}

fn render_template(
    template: &str,
    mut resolve: impl FnMut(&str) -> GcxResult<String>,
) -> GcxResult<String> {
    let mut out = String::new();
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' {
            let mut name = String::new();
            let mut closed = false;
            for c2 in chars.by_ref() {
                if c2 == '}' {
                    closed = true;
                    break;
                }
                name.push(c2);
            }
            if !closed {
                return Err(GcxError::Parse(format!(
                    "unterminated '{{' in mapping template '{template}'"
                )));
            }
            out.push_str(&resolve(&name)?);
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::ids::IdentityId;

    fn ident(username: &str) -> Identity {
        Identity {
            id: IdentityId::random(),
            username: username.into(),
            display_name: "Test User".into(),
        }
    }

    #[test]
    fn listing8_uchicago_mapping() {
        // Listing 8: {username} matched against (.*)@uchicago\.edu → {0}.
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping {
                source: "{username}".into(),
                pattern: r"(.*)@uchicago\.edu".into(),
                output: "{0}".into(),
                ignore_case: false,
            })
            .unwrap();
        assert_eq!(
            mapper.map(&ident("kyle@uchicago.edu")).unwrap(),
            MappingOutcome::Local("kyle".into())
        );
        assert_eq!(
            mapper.map(&ident("kyle@anl.gov")).unwrap(),
            MappingOutcome::Denied
        );
    }

    #[test]
    fn first_match_wins() {
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping {
                source: "{username}".into(),
                pattern: r"admin@site\.org".into(),
                output: "root".into(),
                ignore_case: false,
            })
            .unwrap()
            .add_expression(ExpressionMapping::username_capture("site.org"))
            .unwrap();
        assert_eq!(
            mapper.map(&ident("admin@site.org")).unwrap(),
            MappingOutcome::Local("root".into())
        );
        assert_eq!(
            mapper.map(&ident("bob@site.org")).unwrap(),
            MappingOutcome::Local("bob".into())
        );
    }

    #[test]
    fn ignore_case_transformation() {
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping {
                source: "{username}".into(),
                pattern: r"(.*)@UChicago\.edu".into(),
                output: "{0}".into(),
                ignore_case: true,
            })
            .unwrap();
        assert_eq!(
            mapper.map(&ident("Kyle@uchicago.EDU")).unwrap(),
            MappingOutcome::Local("Kyle".into())
        );
    }

    #[test]
    fn callout_mapper() {
        let mut mapper = IdentityMapper::new();
        mapper.add_callout(|identity: &Identity| {
            // An "LDAP lookup": staff get a shared service account.
            if identity.username.ends_with("@staff.example") {
                Some("svc_shared".to_string())
            } else {
                None
            }
        });
        assert_eq!(
            mapper.map(&ident("ops@staff.example")).unwrap(),
            MappingOutcome::Local("svc_shared".into())
        );
        assert_eq!(
            mapper.map(&ident("x@other.org")).unwrap(),
            MappingOutcome::Denied
        );
    }

    #[test]
    fn callout_falls_through_to_expressions() {
        let mut mapper = IdentityMapper::new();
        mapper.add_callout(|_| None);
        mapper
            .add_expression(ExpressionMapping::username_capture("anl.gov"))
            .unwrap();
        assert_eq!(
            mapper.map(&ident("ryan@anl.gov")).unwrap(),
            MappingOutcome::Local("ryan".into())
        );
    }

    #[test]
    fn output_can_combine_fields_and_groups() {
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping {
                source: "{username}".into(),
                pattern: r"([a-z]+)\.([a-z]+)@dept\.edu".into(),
                output: "{1}_{0}".into(),
                ignore_case: false,
            })
            .unwrap();
        assert_eq!(
            mapper.map(&ident("jane.doe@dept.edu")).unwrap(),
            MappingOutcome::Local("doe_jane".into())
        );
    }

    #[test]
    fn empty_mapper_denies() {
        let mapper = IdentityMapper::new();
        assert!(mapper.is_empty());
        assert_eq!(mapper.map(&ident("a@b.c")).unwrap(), MappingOutcome::Denied);
    }

    #[test]
    fn bad_patterns_and_templates_error() {
        let mut mapper = IdentityMapper::new();
        assert!(mapper
            .add_expression(ExpressionMapping {
                source: "{username}".into(),
                pattern: "(unclosed".into(),
                output: "{0}".into(),
                ignore_case: false,
            })
            .is_err());

        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping {
                source: "{unknown_field}".into(),
                pattern: ".*".into(),
                output: "x".into(),
                ignore_case: false,
            })
            .unwrap();
        assert!(mapper.map(&ident("a@b.c")).is_err());

        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping {
                source: "{username}".into(),
                pattern: ".*".into(),
                output: "{5}".into(),
                ignore_case: false,
            })
            .unwrap();
        assert!(mapper.map(&ident("a@b.c")).is_err());
    }

    #[test]
    fn domain_source_field() {
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping {
                source: "{domain}".into(),
                pattern: r"anl\.gov".into(),
                output: "{local_part}".into(),
                ignore_case: false,
            })
            .unwrap();
        assert_eq!(
            mapper.map(&ident("ryan@anl.gov")).unwrap(),
            MappingOutcome::Local("ryan".into())
        );
    }
}
