module entangled/bench

go 1.24

require entangled v0.0.0

replace entangled => ../
