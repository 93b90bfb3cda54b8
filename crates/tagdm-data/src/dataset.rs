//! The full tagging corpus ⟨U, I, 𝒯, G⟩ and its builder.

use serde::{Deserialize, Serialize};

use crate::action::{ActionId, TaggingAction};
use crate::entity::{Item, ItemId, User, UserId};
use crate::error::DataError;
use crate::schema::Schema;
use crate::tag::{TagId, TagVocabulary};

/// A complete tagging dataset: user/item schemas, entities, the tag vocabulary and the
/// set `G` of tagging actions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// The user schema `S_U`.
    pub user_schema: Schema,
    /// The item schema `S_I`.
    pub item_schema: Schema,
    /// All users, indexed by [`UserId`].
    pub users: Vec<User>,
    /// All items, indexed by [`ItemId`].
    pub items: Vec<Item>,
    /// The tag vocabulary 𝒯.
    pub tags: TagVocabulary,
    /// The input set `G` of tagging actions, indexed by [`ActionId`].
    pub actions: Vec<TaggingAction>,
}

impl Dataset {
    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Number of tagging actions (the paper's "tagging action tuples").
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// Vocabulary size |𝒯|.
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }

    /// Look up a user.
    pub fn user(&self, id: UserId) -> &User {
        &self.users[id.0 as usize]
    }

    /// Look up an item.
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id.0 as usize]
    }

    /// Look up an action.
    pub fn action(&self, id: ActionId) -> &TaggingAction {
        &self.actions[id.0 as usize]
    }

    /// Iterate over `(ActionId, &TaggingAction)` pairs.
    pub fn actions(&self) -> impl Iterator<Item = (ActionId, &TaggingAction)> {
        self.actions
            .iter()
            .enumerate()
            .map(|(i, a)| (ActionId(i as u32), a))
    }

    /// Summary statistics for reporting and sanity checks.
    pub fn stats(&self) -> DatasetStats {
        let total_tag_assignments: usize = self.actions.iter().map(|a| a.tags.len()).sum();
        let mut tagged_items = vec![false; self.items.len()];
        let mut active_users = vec![false; self.users.len()];
        for action in &self.actions {
            tagged_items[action.item.0 as usize] = true;
            active_users[action.user.0 as usize] = true;
        }
        DatasetStats {
            num_users: self.num_users(),
            num_items: self.num_items(),
            num_actions: self.num_actions(),
            vocabulary_size: self.num_tags(),
            total_tag_assignments,
            active_users: active_users.iter().filter(|&&b| b).count(),
            tagged_items: tagged_items.iter().filter(|&&b| b).count(),
            mean_tags_per_action: if self.actions.is_empty() {
                0.0
            } else {
                total_tag_assignments as f64 / self.actions.len() as f64
            },
        }
    }

    /// Validate referential integrity of every action; returns the first violation.
    pub fn validate(&self) -> Result<(), DataError> {
        for action in &self.actions {
            if action.user.0 as usize >= self.users.len() {
                return Err(DataError::UnknownUser(action.user.0));
            }
            if action.item.0 as usize >= self.items.len() {
                return Err(DataError::UnknownItem(action.item.0));
            }
            if action.tags.is_empty() {
                return Err(DataError::EmptyTagSet);
            }
            for &tag in &action.tags {
                if !self.tags.contains(tag) {
                    return Err(DataError::UnknownTag(tag.0));
                }
            }
        }
        Ok(())
    }
}

/// Summary statistics of a dataset (compare against Section 6 "Data Set").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// |U|.
    pub num_users: usize,
    /// |I|.
    pub num_items: usize,
    /// |G| — number of tagging actions.
    pub num_actions: usize,
    /// |𝒯| — number of distinct tags.
    pub vocabulary_size: usize,
    /// Total number of (action, tag) assignments.
    pub total_tag_assignments: usize,
    /// Users that appear in at least one action.
    pub active_users: usize,
    /// Items that appear in at least one action.
    pub tagged_items: usize,
    /// Mean number of tags per action.
    pub mean_tags_per_action: f64,
}

/// Incremental builder for [`Dataset`] that interns attribute values and tags and
/// validates referential integrity as actions are added.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    dataset: Dataset,
}

impl DatasetBuilder {
    /// Start a builder with the given user and item schemas (attribute names only; the
    /// value domains are interned lazily as entities are added).
    pub fn new(user_schema: Schema, item_schema: Schema) -> Self {
        DatasetBuilder {
            dataset: Dataset {
                user_schema,
                item_schema,
                ..Dataset::default()
            },
        }
    }

    /// Convenience constructor with the MovieLens-style schemas used throughout the
    /// paper's evaluation: users ⟨gender, age, occupation, state⟩ and items
    /// ⟨genre, actor, director⟩.
    pub fn movielens_style() -> Self {
        DatasetBuilder::new(
            Schema::with_attributes(["gender", "age", "occupation", "state"]),
            Schema::with_attributes(["genre", "actor", "director"]),
        )
    }

    /// Add a user described by `(attribute, value)` pairs; returns its id.
    pub fn add_user<'a, I>(&mut self, pairs: I) -> Result<UserId, DataError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let values = self.dataset.user_schema.intern_entity(pairs)?;
        let id = UserId(self.dataset.users.len() as u32);
        self.dataset.users.push(User { id, values });
        Ok(id)
    }

    /// Add an item described by `(attribute, value)` pairs; returns its id.
    pub fn add_item<'a, I>(&mut self, pairs: I) -> Result<ItemId, DataError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let values = self.dataset.item_schema.intern_entity(pairs)?;
        let id = ItemId(self.dataset.items.len() as u32);
        self.dataset.items.push(Item { id, values });
        Ok(id)
    }

    /// Intern a tag string.
    pub fn intern_tag(&mut self, tag: &str) -> TagId {
        self.dataset.tags.intern(tag)
    }

    /// Add a tagging action with tag *strings* (interned on the fly).
    pub fn add_action_str(
        &mut self,
        user: UserId,
        item: ItemId,
        tags: &[&str],
        rating: Option<f32>,
    ) -> Result<ActionId, DataError> {
        let tag_ids: Vec<TagId> = tags.iter().map(|t| self.dataset.tags.intern(t)).collect();
        self.add_action(TaggingAction {
            user,
            item,
            tags: tag_ids,
            rating,
        })
    }

    /// Add a fully formed tagging action, validating its references.
    pub fn add_action(&mut self, action: TaggingAction) -> Result<ActionId, DataError> {
        if action.user.0 as usize >= self.dataset.users.len() {
            return Err(DataError::UnknownUser(action.user.0));
        }
        if action.item.0 as usize >= self.dataset.items.len() {
            return Err(DataError::UnknownItem(action.item.0));
        }
        if action.tags.is_empty() {
            return Err(DataError::EmptyTagSet);
        }
        for &tag in &action.tags {
            if !self.dataset.tags.contains(tag) {
                return Err(DataError::UnknownTag(tag.0));
            }
        }
        let id = ActionId(self.dataset.actions.len() as u32);
        self.dataset.actions.push(action);
        Ok(id)
    }

    /// Finish building and return the dataset.
    pub fn build(self) -> Dataset {
        self.dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut b = DatasetBuilder::movielens_style();
        let u0 = b
            .add_user([
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ])
            .unwrap();
        let u1 = b
            .add_user([
                ("gender", "female"),
                ("age", "18-24"),
                ("occupation", "artist"),
                ("state", "ca"),
            ])
            .unwrap();
        let i0 = b
            .add_item([
                ("genre", "comedy"),
                ("actor", "j.aniston"),
                ("director", "gor verbinski"),
            ])
            .unwrap();
        let i1 = b
            .add_item([
                ("genre", "action"),
                ("actor", "t.cruise"),
                ("director", "j.mcquarrie"),
            ])
            .unwrap();
        b.add_action_str(u0, i0, &["funny", "friendship"], Some(4.0))
            .unwrap();
        b.add_action_str(u1, i0, &["friendship", "light"], Some(3.5))
            .unwrap();
        b.add_action_str(u0, i1, &["gun", "special effects"], None)
            .unwrap();
        b.build()
    }

    #[test]
    fn builder_constructs_consistent_dataset() {
        let ds = tiny_dataset();
        assert_eq!(ds.num_users(), 2);
        assert_eq!(ds.num_items(), 2);
        assert_eq!(ds.num_actions(), 3);
        assert_eq!(ds.num_tags(), 5);
        ds.validate().unwrap();
    }

    #[test]
    fn stats_reflect_contents() {
        let ds = tiny_dataset();
        let stats = ds.stats();
        assert_eq!(stats.num_actions, 3);
        assert_eq!(stats.total_tag_assignments, 6);
        assert_eq!(stats.active_users, 2);
        assert_eq!(stats.tagged_items, 2);
        assert!((stats.mean_tags_per_action - 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_action_rejects_bad_references() {
        let mut b = DatasetBuilder::movielens_style();
        let u = b
            .add_user([
                ("gender", "male"),
                ("age", "25-34"),
                ("occupation", "doctor"),
                ("state", "tx"),
            ])
            .unwrap();
        let err = b
            .add_action(TaggingAction::new(u, ItemId(99), vec![]))
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownItem(99)));

        let i = b
            .add_item([
                ("genre", "drama"),
                ("actor", "m.freeman"),
                ("director", "f.darabont"),
            ])
            .unwrap();
        let err = b.add_action(TaggingAction::new(u, i, vec![])).unwrap_err();
        assert!(matches!(err, DataError::EmptyTagSet));

        let err = b
            .add_action(TaggingAction::new(u, i, vec![TagId(42)]))
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownTag(42)));
    }

    #[test]
    fn add_user_with_wrong_arity_fails() {
        let mut b = DatasetBuilder::movielens_style();
        let err = b.add_user([("gender", "male")]).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
    }

    #[test]
    fn validate_detects_corruption() {
        let mut ds = tiny_dataset();
        ds.actions[0].user = UserId(99);
        assert!(matches!(ds.validate(), Err(DataError::UnknownUser(99))));
    }
}
