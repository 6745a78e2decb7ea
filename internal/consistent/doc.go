// Package consistent implements the Consistent Coordination Algorithm of
// §5 of the paper, which finds coordinating sets for *unsafe* query sets
// as long as every user coordinates on the same set of attributes A
// (A-consistent queries, Definition 9).
//
// The model mirrors the paper's application-specific setting: a single
// data relation S whose first-class citizen is a key column, a binary
// friendship relation F(user, friend), and one query per user of the
// general form of §5. A query constrains the coordination attributes
// (shared by the user and all partners), its own non-coordination
// attributes, and names its partners either by constant or as "any
// friend of mine in F".
//
// Coordinate runs on a pooled kernel (kernel.go) on dense integers:
// users, relations and coordination values are interned once (a value
// copied out of the row db.Project yields, only when it is new), the
// coordination graph is flat lists of query indices, and a call
// allocates only its answer: everything else is reused scratch.
// The algorithm as the paper states it — maps, values compared
// pairwise, cleaning by full sweeps — is the tests' reference
// (oracle_test.go). DESIGN.md, "What a §5 request costs", has the
// accounting.
package consistent
