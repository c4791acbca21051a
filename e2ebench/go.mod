module e2ebench

go 1.24

require promips v0.0.0

replace promips => ../
