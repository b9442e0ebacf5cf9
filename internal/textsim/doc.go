// Package textsim holds the string, set and vector similarity measures the
// entity-resolution framework's similarity functions (Table I of the paper)
// are built on, and nothing else:
//
//   - Jaro-Winkler, the classic record-linkage name comparator, and
//     Monge-Elkan, which composes it over token alignments.
//     PreparedNameSimilarity combines the two over names prepared once
//     (PrepareName); it is the "String Similarity" of F3 and F7. (F2's
//     string similarity over URLs is extract.URLSimilarity: Jaro-Winkler
//     over hosts, SetJaccard over path tokens.)
//   - Set overlap over string slices (SetOverlapCount, NormalizedOverlap)
//     and over interned ID sets (InternSet, IntersectSortedCount): the
//     "number of overlapping X" measures of F4, F5 and F6.
//   - Sparse real-valued vectors in the packed form the pairwise loop runs
//     on (PackedVector, built against a block Vocab) with cosine similarity,
//     Pearson correlation similarity and extended Jaccard (Tanimoto)
//     similarity: the TF-IDF based functions F8, F9 and F10, and the
//     concept-vector function F1. The map form (SparseVector, with Cosine)
//     is what records that merge are summed in; Pack and Unpack convert.
//
// All similarity functions return values in [0, 1] where 1 means identical
// (Pearson is rescaled from [-1, 1] to [0, 1] to fit the framework's value
// space). All functions are symmetric in their two arguments.
package textsim
