//! Objects and the object hierarchy.
//!
//! §3.1: resources use a directory-like notation with a partial order ≥O
//! reflecting the data structure, and "we make explicit the name of the data
//! subject when appropriate": `[Jane]EPR/Clinical` is the clinical section
//! of Jane's EPR, with `[Jane]EPR ≥O [Jane]EPR/Clinical`. `[·]EPR` denotes
//! EPRs regardless of the patient.

use cows::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A concrete object: an optional data subject plus a path.
///
/// The path is shared, not owned: every log entry carries its object, and
/// a trail names few distinct objects, so cloning one (parsing a trail,
/// projecting a case, reporting a violation) is a reference-count
/// increment rather than an allocation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ObjectId {
    pub subject: Option<Symbol>,
    pub path: Arc<[Symbol]>,
}

impl ObjectId {
    /// `[subject]a/b/c`.
    pub fn of_subject(subject: impl Into<Symbol>, path: &str) -> ObjectId {
        ObjectId {
            subject: Some(subject.into()),
            path: split_path(path).into(),
        }
    }

    /// `a/b/c` without a data subject.
    pub fn plain(path: &str) -> ObjectId {
        ObjectId {
            subject: None,
            path: split_path(path).into(),
        }
    }

    /// Whether `self ≥O other`: same subject and `self.path` is a prefix of
    /// `other.path`. An EPR dominates each of its sections.
    pub fn dominates(&self, other: &ObjectId) -> bool {
        self.subject == other.subject
            && other.path.len() >= self.path.len()
            && self.path.iter().zip(other.path.iter()).all(|(a, b)| a == b)
    }
}

fn split_path(path: &str) -> Vec<Symbol> {
    path.split('/')
        .filter(|s| !s.is_empty())
        .map(Symbol::new)
        .collect()
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(s) = self.subject {
            write!(f, "[{s}]")?;
        }
        for (i, seg) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{seg}")?;
        }
        Ok(())
    }
}

/// Parse error for [`ObjectId`] / [`ObjectPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectParseError {
    pub input: String,
    pub reason: &'static str,
}

impl fmt::Display for ObjectParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse object `{}`: {}", self.input, self.reason)
    }
}

impl std::error::Error for ObjectParseError {}

impl FromStr for ObjectId {
    type Err = ObjectParseError;

    /// Accepts `path/segments` and `[Subject]path/segments`.
    fn from_str(s: &str) -> Result<ObjectId, ObjectParseError> {
        let parsed = ObjectId::parse_with(s, |text| Some(Symbol::new(text)))?;
        Ok(parsed.expect("Symbol::new resolves every string"))
    }
}

impl ObjectId {
    /// The [`FromStr`] grammar over a caller's symbol source. `symbol` is
    /// asked for the subject, then each path segment, in that order; the
    /// parse stops with `Ok(None)` at the first string it does not
    /// resolve. Errors are exactly those of `FromStr`, which is this over
    /// [`Symbol::new`]; [`Symbol::lookup`] makes it a parse that never
    /// interns.
    pub fn parse_with(
        s: &str,
        mut symbol: impl FnMut(&str) -> Option<Symbol>,
    ) -> Result<Option<ObjectId>, ObjectParseError> {
        let (subject, rest) = parse_subject_prefix(s)?;
        let subject = match subject {
            None => None,
            Some(name) => {
                if name == "*" || name == "." || name == "consent" {
                    return Err(ObjectParseError {
                        input: s.into(),
                        reason: "subject wildcards are only valid in patterns",
                    });
                }
                let Some(subject) = symbol(name) else {
                    return Ok(None);
                };
                Some(subject)
            }
        };
        let mut path = Vec::new();
        let mut bracketed = false;
        for segment in rest.split('/').filter(|seg| !seg.is_empty()) {
            let Some(seg) = symbol(segment) else {
                return Ok(None);
            };
            bracketed |= segment.contains(['[', ']']);
            path.push(seg);
        }
        // Brackets are structural (they delimit the subject prefix): a
        // segment containing one would render to a string that re-parses
        // differently — e.g. `[a]b` as a first segment reads back as
        // subject `a`, path `b`. Reject instead of round-tripping wrong.
        if bracketed {
            return Err(ObjectParseError {
                input: s.into(),
                reason: "brackets are reserved for the subject prefix",
            });
        }
        Ok(Some(ObjectId {
            subject,
            path: path.into(),
        }))
    }
}

fn parse_subject_prefix(s: &str) -> Result<(Option<&str>, &str), ObjectParseError> {
    if let Some(stripped) = s.strip_prefix('[') {
        match stripped.split_once(']') {
            Some((subject, rest)) => Ok((Some(subject), rest)),
            None => Err(ObjectParseError {
                input: s.into(),
                reason: "unterminated subject bracket",
            }),
        }
    } else {
        Ok((None, s))
    }
}

/// Which data subjects a policy statement covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SubjectPattern {
    /// No data subject (plain resources such as `ClinicalTrial/Criteria`).
    None,
    /// `[·]` — any data subject (Fig. 3's `[·]EPR`).
    Any,
    /// `[X]` where X ranges over subjects who consented to the statement's
    /// purpose (Fig. 3's last statement).
    Consenting,
    /// A specific named subject.
    Named(Symbol),
}

/// An object pattern appearing in a policy statement.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ObjectPattern {
    pub subject: SubjectPattern,
    pub path: Vec<Symbol>,
}

impl ObjectPattern {
    pub fn any_subject(path: &str) -> ObjectPattern {
        ObjectPattern {
            subject: SubjectPattern::Any,
            path: split_path(path),
        }
    }

    pub fn consenting(path: &str) -> ObjectPattern {
        ObjectPattern {
            subject: SubjectPattern::Consenting,
            path: split_path(path),
        }
    }

    pub fn plain(path: &str) -> ObjectPattern {
        ObjectPattern {
            subject: SubjectPattern::None,
            path: split_path(path),
        }
    }

    pub fn named(subject: impl Into<Symbol>, path: &str) -> ObjectPattern {
        ObjectPattern {
            subject: SubjectPattern::Named(subject.into()),
            path: split_path(path),
        }
    }

    /// Whether the pattern's object dominates `o` (condition (iii) of
    /// Def. 3: `o' ≥O o`), given whether `o`'s subject consented to the
    /// statement purpose.
    pub fn covers(&self, o: &ObjectId, subject_consented: bool) -> bool {
        let subject_ok = match self.subject {
            SubjectPattern::None => o.subject.is_none(),
            SubjectPattern::Any => o.subject.is_some(),
            SubjectPattern::Consenting => o.subject.is_some() && subject_consented,
            SubjectPattern::Named(s) => o.subject == Some(s),
        };
        subject_ok
            && o.path.len() >= self.path.len()
            && self.path.iter().zip(o.path.iter()).all(|(a, b)| a == b)
    }
}

impl fmt::Display for ObjectPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.subject {
            SubjectPattern::None => {}
            SubjectPattern::Any => write!(f, "[*]")?,
            SubjectPattern::Consenting => write!(f, "[consent]")?,
            SubjectPattern::Named(s) => write!(f, "[{s}]")?,
        }
        for (i, seg) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{seg}")?;
        }
        Ok(())
    }
}

impl FromStr for ObjectPattern {
    type Err = ObjectParseError;

    /// Accepts `path`, `[*]path`, `[.]path` (same as `[*]`), `[consent]path`
    /// and `[Name]path`.
    fn from_str(s: &str) -> Result<ObjectPattern, ObjectParseError> {
        let (subject, rest) = parse_subject_prefix(s)?;
        let subject = match subject {
            None => SubjectPattern::None,
            Some("*") | Some(".") => SubjectPattern::Any,
            Some("consent") => SubjectPattern::Consenting,
            Some(name) if !name.is_empty() => SubjectPattern::Named(Symbol::new(name)),
            Some(_) => {
                return Err(ObjectParseError {
                    input: s.into(),
                    reason: "empty subject bracket",
                })
            }
        };
        Ok(ObjectPattern {
            subject,
            path: split_path(rest),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cows::sym;

    #[test]
    fn object_dominance() {
        let epr = ObjectId::of_subject("Jane", "EPR");
        let clinical = ObjectId::of_subject("Jane", "EPR/Clinical");
        let scan = ObjectId::of_subject("Jane", "EPR/Clinical/Scan");
        assert!(epr.dominates(&clinical));
        assert!(epr.dominates(&scan));
        assert!(clinical.dominates(&scan));
        assert!(!clinical.dominates(&epr));
        assert!(epr.dominates(&epr));
    }

    #[test]
    fn dominance_requires_same_subject() {
        let jane = ObjectId::of_subject("Jane", "EPR");
        let david = ObjectId::of_subject("David", "EPR/Clinical");
        assert!(!jane.dominates(&david));
    }

    #[test]
    fn display_round_trip() {
        let o = ObjectId::of_subject("Jane", "EPR/Clinical");
        assert_eq!(o.to_string(), "[Jane]EPR/Clinical");
        assert_eq!(o.to_string().parse::<ObjectId>().unwrap(), o);
        let p = ObjectId::plain("ClinicalTrial/Criteria");
        assert_eq!(p.to_string(), "ClinicalTrial/Criteria");
        assert_eq!(p.to_string().parse::<ObjectId>().unwrap(), p);
    }

    #[test]
    fn any_subject_pattern_covers_all_patients() {
        let pat = ObjectPattern::any_subject("EPR/Clinical");
        let jane = ObjectId::of_subject("Jane", "EPR/Clinical/Tests");
        let david = ObjectId::of_subject("David", "EPR/Clinical");
        assert!(pat.covers(&jane, false));
        assert!(pat.covers(&david, false));
        // But not subject-less objects, nor other sections.
        assert!(!pat.covers(&ObjectId::plain("EPR/Clinical"), false));
        assert!(!pat.covers(&ObjectId::of_subject("Jane", "EPR/Demographics"), false));
    }

    #[test]
    fn consenting_pattern_requires_consent() {
        let pat = ObjectPattern::consenting("EPR");
        let jane = ObjectId::of_subject("Jane", "EPR/Clinical");
        assert!(pat.covers(&jane, true));
        assert!(!pat.covers(&jane, false));
    }

    #[test]
    fn named_pattern() {
        let pat = ObjectPattern::named("Jane", "EPR");
        assert!(pat.covers(&ObjectId::of_subject("Jane", "EPR/Clinical"), false));
        assert!(!pat.covers(&ObjectId::of_subject("David", "EPR/Clinical"), false));
    }

    #[test]
    fn pattern_parsing() {
        assert_eq!(
            "[*]EPR/Clinical".parse::<ObjectPattern>().unwrap(),
            ObjectPattern::any_subject("EPR/Clinical")
        );
        assert_eq!(
            "[.]EPR".parse::<ObjectPattern>().unwrap(),
            ObjectPattern::any_subject("EPR")
        );
        assert_eq!(
            "[consent]EPR".parse::<ObjectPattern>().unwrap(),
            ObjectPattern::consenting("EPR")
        );
        assert_eq!(
            "[Jane]EPR".parse::<ObjectPattern>().unwrap(),
            ObjectPattern::named("Jane", "EPR")
        );
        assert_eq!(
            "ClinicalTrial".parse::<ObjectPattern>().unwrap(),
            ObjectPattern::plain("ClinicalTrial")
        );
        assert!("[Jane EPR".parse::<ObjectPattern>().is_err());
    }

    #[test]
    fn object_rejects_pattern_wildcards() {
        assert!("[*]EPR".parse::<ObjectId>().is_err());
        assert!("[consent]EPR".parse::<ObjectId>().is_err());
    }

    #[test]
    fn subject_symbol_accessible() {
        let o = ObjectId::of_subject("Jane", "EPR");
        assert_eq!(o.subject, Some(sym("Jane")));
    }
}
