package main

// Example holds what the README says the program prints.
func Example() {
	main()
	// Output:
	// fans:
	//   Ana   dest=* date=* from=NYC airline=*
	//   Bo    dest=* date=* from=Tokyo airline=*
	//   Chen  dest=* date=* from=Sydney airline=Qantas
	//   Dee   dest=Zurich date=* from=NYC airline=*
	//
	// candidates (destination, date):
	//   Zurich on day 11 -> [Ana Bo]
	//   Berlin on day 18 -> [Ana Bo]
	//
	// winner: Zurich, flying on day 11 (concert the next night)
	//   Ana   books trip f1
	//   Bo    books trip f3
}
