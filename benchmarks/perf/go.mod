module ivdss/benchmarks/perf

go 1.22

require ivdss v0.0.0

replace ivdss => ../..
