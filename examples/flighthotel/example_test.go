package main

// Example holds what the README says the program prints.
func Example() {
	main()
	// Output:
	// the Figure 1 query set:
	//   qC:  {R(G, x1)} R(C, x1), Q(C, x2) :- F(x1, x), H(x2, x)
	//   qG:  {R(C, y1), Q(C, y2)} R(G, y1), Q(G, y2) :- F(y1, Paris), H(y2, Paris)
	//   qJ:  {R(C, z1), R(G, z1)} R(J, z1), Q(J, z2) :- F(z1, Athens), H(z2, Athens)
	//   qW:  {R(C, w1), Q(J, w2)} R(W, w1), Q(W, w2) :- F(w1, Madrid), H(w2, Madrid)
	//
	// safe: true, unique: false
	// strongly connected components (3):
	//   component 0: [qC qG]
	//   component 1: [qJ]
	//   component 2: [qW]
	//
	// Gupta et al. baseline: coord: query set is not unique
	//
	// SCC algorithm: coordinating set [qC qG] with 3 database queries
	//   qC travels: flight=70 hotel=h1
	//   qG travels: flight=70 hotel=h1
	//
	// Jonny and Will stay home: Athens is not on the Paris flight,
	// and Will's requirements depend on Jonny's hotel.
}
