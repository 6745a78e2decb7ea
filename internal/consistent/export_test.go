package consistent

// OracleCoordinate lets the external test package compare Coordinate
// against the reference implementation, the movies example lets it run
// the smallest set beside the flight sets, and TeamHash lets it build
// teams that hash alike.
var (
	OracleCoordinate = oracleCoordinate
	TeamHash         = teamHash
	MoviesSchema     = moviesSchema
	MoviesInstance   = moviesInstance
	MoviesQueries    = moviesQueries
)
