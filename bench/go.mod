module fifl/bench

go 1.22

require fifl v0.0.0

replace fifl => ../
