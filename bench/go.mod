module ecrpq/bench

go 1.22

require ecrpq v0.0.0

replace ecrpq => ../
