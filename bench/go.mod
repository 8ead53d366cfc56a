// smoothbench is the repository's benchmark. It is a module of its own so
// that bench/ carries its build file; the replace directive points it at
// the program it measures, and the repro/ path prefix lets it import the
// program's internal packages.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
