package stream

// SetCompactAfter sets s's slot-compaction threshold in place of
// DefaultCompactAfter, before s sees its first event: 1 compacts after
// every departure, math.MaxInt never.
func SetCompactAfter(s *Session, n int) { s.compactAfter = n }
