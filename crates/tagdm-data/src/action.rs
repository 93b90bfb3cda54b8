//! Tagging actions ⟨u, i, T⟩.

use serde::{Deserialize, Serialize};

use crate::entity::{ItemId, UserId};
use crate::tag::TagId;

/// Index of a tagging action inside a [`Dataset`](crate::dataset::Dataset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ActionId(pub u32);

/// A single tagging action: user `u` applied the tags `T` to item `i`.
///
/// An optional numeric rating accompanies the action; the paper uses ratings when
/// defining the set-distance variant of user similarity (Section 2.1.1) and when
/// aligning the MovieLens 1M and 10M datasets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggingAction {
    /// The tagging user.
    pub user: UserId,
    /// The tagged item.
    pub item: ItemId,
    /// The (non-empty) set of tags applied by the user to the item.
    pub tags: Vec<TagId>,
    /// Optional star rating in `[0.5, 5.0]`.
    pub rating: Option<f32>,
}

impl TaggingAction {
    /// Construct an action without a rating.
    pub fn new(user: UserId, item: ItemId, tags: Vec<TagId>) -> Self {
        TaggingAction {
            user,
            item,
            tags,
            rating: None,
        }
    }

    /// Number of tags in the action.
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let a = TaggingAction::new(UserId(1), ItemId(2), vec![TagId(3), TagId(4)]);
        assert_eq!(a.num_tags(), 2);
        assert_eq!(a.rating, None);
    }
}
