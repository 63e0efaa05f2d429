module datalab/bench

go 1.24

require datalab v0.0.0

replace datalab => ../
