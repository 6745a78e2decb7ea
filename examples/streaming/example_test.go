package main

// Example holds what the README says the program prints.
func Example() {
	main()
	// Output:
	// join ana    team=1 dirty=1 spliced=0 dbqueries=1
	// join bo     team=2 dirty=1 spliced=0 dbqueries=1
	// join cy     team=3 dirty=1 spliced=0 dbqueries=1
	// join dee    team=4 dirty=1 spliced=0 dbqueries=1
	// leave bo     team=1 dirty=0 spliced=1 dbqueries=0 (stranded users pruned)
	// join bo     team=4 dirty=1 spliced=0 dbqueries=1
	// final team of 4: ana->Paris cy->Paris dee->Paris bo->Paris
}
