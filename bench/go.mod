module ontario/bench

go 1.22

require ontario v0.0.0

replace ontario => ../
