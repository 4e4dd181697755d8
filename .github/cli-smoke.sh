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
cli="import sys; from fejerquant.cli import main; sys.exit(main(sys.argv[1:]))"
# runs "code args..." under -X dev -W error and fails when the run's peak RSS
# (ru_maxrss of the children, KiB on Linux) is above the cap in MB
rss_capped='import resource, subprocess, sys
cap_mb, code, *args = sys.argv[1:]
status = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *args]).returncode
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if peak_mb > float(cap_mb):
    sys.exit(f"peak RSS {peak_mb:.0f} MB is above {cap_mb} MB")
sys.exit(status)'

# check NAME COMMAND...: a nonzero exit code or any output on stderr fails
check() {
  name=$1
  shift
  "$@" 2> "$dir/stderr" || { status=$?; echo "$name exited $status"; cat "$dir/stderr"; exit 1; }
  if [ -s "$dir/stderr" ]; then echo "$name wrote to stderr:"; cat "$dir/stderr"; exit 1; fi
}

quant_1d='{"A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 2, "L": "4", "d": 1,
  "theta": {"kind": "power_rate", "c": "1", "p": 1},
  "xi": {"kind": "power_sum_rate", "c": "1", "p": 3}, "varpi": {"kind": "identity"}}'
quant_2d='{"A": "2", "B": 1, "Bprime": 0, "C": "1", "M": 10, "L": "2", "d": 2,
  "theta": {"kind": "power_rate", "c": "1", "p": 1},
  "xi": {"kind": "power_sum_rate", "c": "1", "p": 3}, "varpi": {"kind": "identity"}}'
schedule='{"lambda": {"rule": "power", "c": 1, "p": 1}, "mu": {"rule": "power", "c": 1, "p": 3}'

echo '{"problem": "dc-abs-1d", "params": {"steps": 50}}' > "$dir/run.json"
echo '{"problem": "dc-abs-1d", "params": {"max_n": 10, "max_l": 10, "max_i": 15, "steps": 25}}' > "$dir/check-lemmas.json"
# psi' and the gamma scan; the second run's cap is passed by psi and psi'
echo '{"problem": "dc-abs-1d", "params": {"k": 0, "steps": 50, "use_psi_prime": true, "check_gamma": true}}' > "$dir/certify-metastability.json"
# psi alone at k = 2 (3,608 digits), where a cap of 10^3000 lets the growth
# bound call the overflow at the first stage
echo '{"problem": "dc-abs-1d", "params": {"k": 2, "steps": 200}}' > "$dir/certify-psi.json"
# the sublinear theta = power_rate(1, 2) takes psi to a fixed point long
# before its P = 8,231,162 stages at k = 10
cat > "$dir/certify-fixed-point.json" <<EOF
{"problem": "box-affine-nd",
 "schedule": {"lambda": {"rule": "power", "c": 1, "p": 2}, "mu": {"rule": "power", "c": 1, "p": 4},
              "horizon": 2000},
 "quant": {"A": "7/4", "B": 1, "Bprime": 0, "C": "1", "M": 3, "L": "2", "d": 2,
           "theta": {"kind": "power_rate", "c": "1", "p": 2},
           "xi": {"kind": "power_sum_rate", "c": "1", "p": 4}, "varpi": {"kind": "identity"}},
 "params": {"k": 10, "steps": 2000}}
EOF
echo '{"problem": "dc-abs-1d", "params": {"steps": 50, "b": "1/2", "phi_reg": {"kind": "linear", "provenance": "analytic", "center": [0.0], "radius": "5", "scale": "1"}}}' > "$dir/cauchy-modulus.json"
echo '{"params": {"modulus": "kappa", "k": 0, "M": 1, "B": 1}}' > "$dir/moduli-eval.json"
# 0 is fixed by stages 0..999 and left at stage 1000: a fast-forward that ends partway
cat > "$dir/run-fixed-partway.json" <<EOF
{"problem": {"T": {"kind": "affine_psd", "matrix": [[1.0]], "offset": [1.001]},
             "S": {"kind": "subdiff_abs", "dim": 1}, "x0": [0.0]},
 "schedule": $schedule, "horizon": 5000}, "quant": $quant_1d, "params": {"steps": 5000}}
EOF
# a dense T steps on one-row arrays; the path is captured at the box corner
# (0, 1), and the fast-forward fills the stages that fix it
cat > "$dir/run-dense-corner.json" <<EOF
{"problem": {"T": {"kind": "affine_psd", "matrix": [[2.0, 1.0], [1.0, 2.0]], "offset": [-5.0, 5.0]},
             "S": {"kind": "normal_cone_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "x0": [0.5, 0.5]},
 "schedule": $schedule, "horizon": 12000}, "quant": $quant_2d, "params": {"steps": 12000}}
EOF
cat > "$dir/run-long-horizon.json" <<EOF
{"problem": "dc-abs-1d",
 "schedule": {"lambda": {"rule": "power", "c": 1, "p": 1}, "mu": {"rule": "power", "c": 1, "p": 2},
              "horizon": 16777216},
 "quant": {"A": "18", "B": 1, "Bprime": 0, "C": "1", "M": 2, "L": "4", "d": 1,
           "theta": {"kind": "power_rate", "c": "1", "p": 1},
           "xi": {"kind": "power_sum_rate", "c": "1", "p": 2}, "varpi": {"kind": "identity"}},
 "params": {"steps": 10}}
EOF

# each entry is task:config, or task:config:cap
for entry in run:run check-lemmas:check-lemmas certify-metastability:certify-metastability \
    certify-metastability:certify-metastability:100000000000000000000 \
    certify-metastability:certify-psi:1e3000 certify-metastability:certify-fixed-point \
    cauchy-modulus:cauchy-modulus moduli-eval:moduli-eval run:run-fixed-partway \
    run:run-dense-corner; do
  IFS=: read -r task config cap <<< "$entry"
  check "$config" python -X dev -W error -c "$cli" \
    "$task" --config "$dir/$config.json" --out "$dir/out" ${cap:+--cap "$cap"}
done
# 10 steps of a 2^24-stage schedule: validate_against reads the stages in
# 64 KB pieces, so the run stays within 64 MB (whole float64 arrays over the
# stages took 542 MB)
check run-long-horizon python -c "$rss_capped" 64 "$cli" \
  run --config "$dir/run-long-horizon.json" --out "$dir/out"
echo "CLI smoke: all tasks passed"
