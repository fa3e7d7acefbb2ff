module github.com/coax-index/coax/bench

go 1.24

require github.com/coax-index/coax v0.0.0

replace github.com/coax-index/coax => ../
