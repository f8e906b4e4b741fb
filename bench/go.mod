module xdeal/bench

go 1.24

require xdeal v0.0.0

replace xdeal => ../
