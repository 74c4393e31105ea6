#!/bin/sh
# Command-line checks of asapc, run by `dune runtest`:
# - `asapc gen` prints the nnz of the matrix it writes (duplicates
#   summed), the count in the written file's header;
# - `asapc run --matrix` turns a malformed or missing file into a usage
#   error (exit 124) that names the file;
# - a format without a dense top level under `asapc tune --tune-mode
#   sweep|hybrid` or `asapc run --threads N` (N > 1) is a usage error
#   (exit 124) that names the constraint;
# - a rank-3 tensor under `asapc run|tune|inspect` (matrix formats) or
#   `asapc gen` (Matrix Market) is a usage error (exit 124) that names
#   the rank mismatch;
# - `asapc run -k sddmm --check` on a 60000-row matrix passes: SDDMM's
#   output follows the sampling pattern, where a dense one would need
#   28.8 GB.
# Usage: cli_smoke.sh ASAPC
set -u
asapc=$1
case $asapc in */*) ;; *) asapc=./$asapc ;; esac
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() { echo "cli_smoke: $*" >&2; exit 1; }

out=$("$asapc" gen -g powerlaw:2000,8 -o "$dir/gen.mtx") || fail "gen: exit $?"
printed=$(echo "$out" | sed -n 's/.*, \([0-9]*\) nnz)$/\1/p')
header=$(sed -n 2p "$dir/gen.mtx" | cut -d ' ' -f 3)
[ -n "$printed" ] && [ "$printed" = "$header" ] ||
  fail "gen printed '$printed' nnz, the header says '$header'"

printf '%%%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n' \
  > "$dir/dup.mtx"
for f in "$dir/dup.mtx" "$dir/missing.mtx"; do
  "$asapc" run --matrix "$f" > /dev/null 2> "$dir/err"
  code=$?
  [ "$code" -eq 124 ] || fail "run --matrix $f: exit $code, want 124"
  grep -q "$f" "$dir/err" || fail "run --matrix $f: the error does not name the file"
done

for args in "tune --tune-mode sweep -f dcsr" "tune --tune-mode sweep -f coo" \
    "tune --tune-mode hybrid -f dcsr" "run --threads 4 -f dcsr"; do
  "$asapc" $args -g powerlaw:2000,8 > /dev/null 2> "$dir/err"
  code=$?
  [ "$code" -eq 124 ] || fail "$args: exit $code, want 124"
  grep -q "dense top level" "$dir/err" ||
    fail "$args: the error does not name the dense-top-level constraint"
done

for args in "run" "tune" "inspect" "gen -o $dir/t3.mtx"; do
  "$asapc" $args -g tensor3:20,20,20,200 > /dev/null 2> "$dir/err"
  code=$?
  [ "$code" -eq 124 ] || fail "$args on a rank-3 tensor: exit $code, want 124"
  grep -q "rank 3" "$dir/err" ||
    fail "$args on a rank-3 tensor: the error does not name the rank"
done

"$asapc" run -k sddmm -g powerlaw:60000,1 --check > "$dir/out" 2> "$dir/err" ||
  fail "run -k sddmm -g powerlaw:60000,1 --check: exit $?"
grep -q "^check: max |err|" "$dir/out" ||
  fail "run -k sddmm -g powerlaw:60000,1 --check: no check line"
