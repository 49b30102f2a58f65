//! VALINOR-style hierarchical tile index over raw files.
//!
//! This crate is the indexing substrate the paper builds on (its §2.2): a
//! main-memory index that organizes the objects of a raw file into
//! hierarchies of non-overlapping rectangular tiles defined over the two
//! axis attributes. Each tile keeps
//!
//! * the **object entries** that fall inside it — axis values plus the byte
//!   offset of the object's record in the raw file (never the non-axis
//!   values themselves: those stay in the file, that is the in-situ deal);
//! * **aggregate metadata** per non-axis attribute (count/sum/min/max/sum²),
//!   either *exact* (computed from values that were actually read) or
//!   *bounded* (outer `[min,max]` bounds inherited from a parent tile or the
//!   global column range — enough for the AQP confidence intervals of
//!   `pai-core`).
//!
//! A split tile stays in the hierarchy as an inner tile that keeps answering
//! for its subtree — its object count and its metadata stay true for
//! everything below it — so classifying a window ([`ValinorIndex::classify`])
//! stops at the highest tile the window covers instead of visiting its
//! leaves.
//!
//! The index starts as a "crude" uniform grid ([`init`]) and refines itself
//! query by query ([`adapt`]): partially-contained tiles are split, their
//! objects reorganized, and metadata computed for the new subtiles, in
//! plan → fetch → apply stages. The evaluation loop that drives them lives in
//! `pai-core`, for both of the paper's methods: the exact baseline processes
//! every partially-contained tile, partial adaptation only a subset. The
//! [`eval`] module holds what both report per query ([`QueryStats`]).

pub mod adapt;
pub mod config;
pub mod entry;
pub mod eval;
pub mod index;
pub mod init;
pub mod metadata;
pub mod render;
pub mod split;
pub mod testutil;
pub mod tile;

pub use adapt::{apply_plan, fetch_window, plan_tile, still_applies, ProcessOutcome, TilePlan};
pub use config::{AdaptConfig, MetadataPolicy, ReadPolicy};
pub use entry::ObjectEntry;
pub use eval::{QueryStats, StageTimes};
pub use index::{Classification, PartialTile, ValinorIndex};
pub use init::InitConfig;
pub use metadata::{AttrMeta, TileMetadata};
pub use split::SplitPolicy;
pub use testutil::{build_test_index, build_test_index_with_file, test_file, TestIndexSpec};
pub use tile::{Tile, TileId, TileState};
