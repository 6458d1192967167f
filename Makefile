.PHONY: all check test bench bench-smoke cells clean

all:
	dune build

check:
	dune build && dune runtest && dune exec tools/bench_check.exe

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-smoke:
	dune exec tools/bench_check.exe

# Full bench run compared byte for byte with the committed baseline.
cells:
	dune exec bench/main.exe -- -json _build/cells.json
	cmp _build/cells.json bench/BENCH_vm.json

clean:
	dune clean
