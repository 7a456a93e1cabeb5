module github.com/aiql/aiql/benchmark

go 1.22

require github.com/aiql/aiql v0.0.0

replace github.com/aiql/aiql => ../
