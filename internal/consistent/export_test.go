package consistent

// OracleCoordinate lets the external test package compare Coordinate
// against the reference implementation.
var OracleCoordinate = oracleCoordinate
