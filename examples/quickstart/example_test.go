package main

// Example holds what the README says the program prints.
func Example() {
	main()
	// Output:
	// queries:
	//   gwyneth: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)
	//   chris:   {} R(Chris, y) :- Flights(y, Zurich)
	// safe: true, unique: false (non-unique sets are fine for the SCC algorithm)
	//
	// coordinating set: [gwyneth chris] (1 database queries)
	//   gwyneth: x = 101
	//   chris: y = 101
	// verified: both fly on the same plane.
}
