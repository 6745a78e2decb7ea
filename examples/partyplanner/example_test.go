package main

// Example holds what the README says the program prints.
func Example() {
	main()
	// Output:
	// bob submits — waiting (1 pending)
	// carol submits — waiting (2 pending)
	// alice submits — coordinates 3 queries:
	//   bob goes to warehouse
	//   carol goes to warehouse
	//   alice goes to warehouse
	// dave submits — waiting (1 pending)
	// pending at the end: 1 (Dave keeps waiting; Alice already left)
}
