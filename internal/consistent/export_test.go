package consistent

// OracleCoordinate lets the external test package compare Coordinate
// against the reference implementation, and the movies example lets it
// run the smallest set beside the flight sets.
var (
	OracleCoordinate = oracleCoordinate
	MoviesSchema     = moviesSchema
	MoviesInstance   = moviesInstance
	MoviesQueries    = moviesQueries
)
