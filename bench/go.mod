module rexptree/bench

go 1.22

require rexptree v0.0.0

replace rexptree => ../
