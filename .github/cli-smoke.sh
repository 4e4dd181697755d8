#!/usr/bin/env bash
# CLI smoke test: every task on a small config, each in a fresh interpreter
# with warnings as errors (python -X dev -W error), so the exit hook and the
# vectorized stepper checks run on each supported Python and numpy. A nonzero
# exit code or any output on stderr fails the script.
#
# Run from the repository root: bash .github/cli-smoke.sh
set -u
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

quant_1d='{"A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 2, "L": "4", "d": 1,
  "theta": {"kind": "power_rate", "c": "1", "p": 1},
  "xi": {"kind": "power_sum_rate", "c": "1", "p": 3}, "varpi": {"kind": "identity"}}'
schedule='{"lambda": {"rule": "power", "c": 1, "p": 1}, "mu": {"rule": "power", "c": 1, "p": 3}'

echo '{"problem": "dc-abs-1d", "params": {"steps": 50}}' > "$dir/run.json"
echo '{"problem": "dc-abs-1d", "params": {"max_n": 10, "max_l": 10, "max_i": 15, "steps": 25}}' > "$dir/check-lemmas.json"
echo '{"problem": "dc-abs-1d", "params": {"k": 0, "steps": 50}}' > "$dir/certify-metastability.json"
echo '{"problem": "dc-abs-1d", "params": {"steps": 50, "b": "1/2", "phi_reg": {"kind": "linear", "provenance": "analytic", "center": [0.0], "radius": "5", "scale": "1"}}}' > "$dir/cauchy-modulus.json"
echo '{"params": {"modulus": "kappa", "k": 0, "M": 1, "B": 1}}' > "$dir/moduli-eval.json"
# 0 is fixed by stages 0..999 and left at stage 1000: a fast-forward that ends partway
cat > "$dir/run-fixed-partway.json" <<EOF
{"problem": {"T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [1.001]},
             "S": {"kind": "subdiff_abs", "dim": 1}, "x0": [0.0]},
 "schedule": $schedule, "horizon": 5000}, "quant": $quant_1d, "params": {"steps": 5000}}
EOF

# each entry is task:config
for entry in run:run check-lemmas:check-lemmas certify-metastability:certify-metastability \
    cauchy-modulus:cauchy-modulus moduli-eval:moduli-eval run:run-fixed-partway; do
  task=${entry%%:*}
  config=${entry#*:}
  python -X dev -W error -c "import sys; from fejerquant.cli import main; sys.exit(main(sys.argv[1:]))" \
    "$task" --config "$dir/$config.json" --out "$dir/out" 2> "$dir/stderr" \
    || { status=$?; echo "$config exited $status"; cat "$dir/stderr"; exit 1; }
  if [ -s "$dir/stderr" ]; then echo "$config wrote to stderr:"; cat "$dir/stderr"; exit 1; fi
done
echo "CLI smoke: all tasks passed"
