.PHONY: all check test bench bench-smoke clean

all:
	dune build

check:
	dune build && dune build @check && dune runtest && dune exec tools/bench_check.exe

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-smoke:
	dune exec tools/bench_check.exe

clean:
	dune clean
