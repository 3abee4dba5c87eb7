module prophet/benchmark

go 1.22

require prophet v0.0.0

replace prophet => ../
