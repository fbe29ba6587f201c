module geomob/bench

go 1.24

require geomob v0.0.0

replace geomob => ../
