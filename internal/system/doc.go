// Package system provides the online front end described in §6.1: a
// Youtopia-style coordination module that accepts entangled queries one
// at a time and retires coordinated queries (choose-1 semantics: once a
// query is answered it leaves the system). It is a policy over a
// stream.Session, which maintains the coordination graph incrementally
// and re-solves only what an arrival can reach; store writes made since
// a component was last solved are therefore seen by Flush, not Submit.
package system
