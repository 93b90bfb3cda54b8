//! Error type for dataset construction and (de)serialization.

use std::fmt;

/// Errors raised while building, validating or (de)serializing datasets.
#[derive(Debug)]
pub enum DataError {
    /// An attribute name was referenced that does not exist in the schema.
    UnknownAttribute(String),
    /// An attribute value was referenced that is not in the attribute's domain.
    UnknownValue {
        /// Name of the attribute whose domain was consulted.
        attribute: String,
        /// The offending value.
        value: String,
    },
    /// An entity's value vector does not match the schema arity.
    ArityMismatch {
        /// What kind of entity was being added ("user" or "item").
        entity: &'static str,
        /// Number of values expected (schema arity).
        expected: usize,
        /// Number of values provided.
        got: usize,
    },
    /// A tagging action referenced a user id that has not been added to the dataset.
    UnknownUser(u32),
    /// A tagging action referenced an item id that has not been added to the dataset.
    UnknownItem(u32),
    /// A tagging action referenced a tag id outside the vocabulary.
    UnknownTag(u32),
    /// A tagging action carried an empty tag set.
    EmptyTagSet,
    /// Wrapper around JSON (de)serialization failures.
    Serde(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            DataError::UnknownValue { attribute, value } => {
                write!(
                    f,
                    "value `{value}` is not in the domain of attribute `{attribute}`"
                )
            }
            DataError::ArityMismatch {
                entity,
                expected,
                got,
            } => write!(
                f,
                "{entity} has {got} attribute values but the schema defines {expected}"
            ),
            DataError::UnknownUser(id) => write!(f, "tagging action references unknown user {id}"),
            DataError::UnknownItem(id) => write!(f, "tagging action references unknown item {id}"),
            DataError::UnknownTag(id) => write!(f, "tagging action references unknown tag {id}"),
            DataError::EmptyTagSet => write!(f, "tagging action has an empty tag set"),
            DataError::Serde(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<serde_json::Error> for DataError {
    fn from(err: serde_json::Error) -> Self {
        DataError::Serde(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = DataError::UnknownValue {
            attribute: "gender".into(),
            value: "unknown".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("gender"));
        assert!(msg.contains("unknown"));

        let err = DataError::ArityMismatch {
            entity: "user",
            expected: 4,
            got: 2,
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains('2'));
    }

    #[test]
    fn serde_errors_convert() {
        let json_err = serde_json::from_str::<u32>("not json").unwrap_err();
        let err: DataError = json_err.into();
        assert!(matches!(err, DataError::Serde(_)));
    }
}
