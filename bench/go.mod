module tpascd/bench

go 1.22

require tpascd v0.0.0

replace tpascd => ../
