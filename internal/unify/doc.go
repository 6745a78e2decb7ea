// Package unify implements unification of entangled-query atoms.
//
// The coordination algorithms of Mamouras et al. repeatedly unify
// postcondition atoms with head atoms and maintain the most general
// unifier (MGU) of a growing group of queries. A substitution is a
// union-find forest over numbered variables — the caller numbers its
// queries' variables once, and no name enters the forest — in which
// every equivalence class may carry at most one constant binding. Its
// term table says which variable each argument of a body stands for,
// so a store solves a body under a substitution by position (Term),
// building neither a substituted copy nor a string; Resolve builds the
// copy only to render one, naming each class as its caller asks. MGU,
// for atoms whose variables are names, numbers them in order of first
// sight.
package unify
