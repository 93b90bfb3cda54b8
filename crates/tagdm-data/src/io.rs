//! JSON (de)serialization of datasets.
//!
//! Experiment inputs are plain JSON so that generated corpora can be inspected, diffed
//! and re-used across runs. Deserialization rebuilds the in-memory lookup indices that
//! are intentionally not persisted.

use crate::dataset::Dataset;
use crate::error::DataError;

/// Serialize a dataset to a JSON string.
pub fn to_json(dataset: &Dataset) -> Result<String, DataError> {
    Ok(serde_json::to_string(dataset)?)
}

/// Deserialize a dataset from a JSON string, rebuilding lookup indices.
pub fn from_json(json: &str) -> Result<Dataset, DataError> {
    let mut dataset: Dataset = serde_json::from_str(json)?;
    rebuild(&mut dataset);
    dataset.validate()?;
    Ok(dataset)
}

fn rebuild(dataset: &mut Dataset) {
    dataset.user_schema.rebuild_indices();
    dataset.item_schema.rebuild_indices();
    dataset.tags.rebuild_index();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::movielens_style();
        let u = b
            .add_user([
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ])
            .unwrap();
        let i = b
            .add_item([("genre", "comedy"), ("actor", "a"), ("director", "x")])
            .unwrap();
        b.add_action_str(u, i, &["funny", "quirky"], Some(4.0))
            .unwrap();
        b.build()
    }

    #[test]
    fn json_roundtrip_preserves_dataset() {
        let ds = dataset();
        let json = to_json(&ds).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.num_users(), ds.num_users());
        assert_eq!(back.num_items(), ds.num_items());
        assert_eq!(back.num_actions(), ds.num_actions());
        assert_eq!(back.num_tags(), ds.num_tags());
        // Indices are rebuilt: lookups by name still work.
        assert_eq!(
            back.user_schema.attribute_id("state"),
            ds.user_schema.attribute_id("state")
        );
        assert_eq!(back.tags.id("funny"), ds.tags.id("funny"));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(from_json("{not json").is_err());
    }
}
