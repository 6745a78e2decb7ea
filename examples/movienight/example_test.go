package main

// Example holds what the README says the program prints.
func Example() {
	main()
	// Output:
	// requests:
	//   Chris  cinema=Regal movie=Contagion partners=[Will]
	//   Guy    cinema=AMC movie=ProjectX partners=[any friend]
	//   Jonny  cinema=* movie=Hugo partners=[any friend]
	//   Will   cinema=* movie=Hugo partners=[any friend]
	//
	// as entangled queries the set is safe: false — §4 does not apply, §5 does
	//
	// candidate cinemas and who survives cleaning:
	//   Regal     -> [Chris Jonny Will]
	//   AMC       -> [Guy Jonny Will]
	//
	// winner: Regal
	//   Chris  watches movie m1
	//   Jonny  watches movie m3
	//   Will   watches movie m3
	// (2 database queries — one batch of option lists, one of friend lists)
}
