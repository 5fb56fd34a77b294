module hpclog/bench

go 1.23

require hpclog v0.0.0

replace hpclog => ../
