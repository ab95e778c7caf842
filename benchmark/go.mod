module hybridstore/benchmark

go 1.24

require hybridstore v0.0.0

replace hybridstore => ../
