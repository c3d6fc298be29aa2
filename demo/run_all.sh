#!/bin/sh
# Runs the installed `ftqc` console script on the demo configs and on further
# cases written below, each with its expected exit code and, where it checks
# one, its expected output, and stops at the first case that differs.
# Run it from the repository root:
#
#     sh demo/run_all.sh
#
# FTQC names the command to run in place of `ftqc`, split into words, so a
# checkout runs without installing:
#
#     FTQC="python3 -m ftqc.cli" PYTHONPATH=src sh demo/run_all.sh
set -eu
FTQC=${FTQC:-ftqc}

$FTQC plan --config demo/plan.json
$FTQC tradeoff --config demo/tradeoff.json
$FTQC vote --config demo/vote.json
$FTQC verify --config demo/verify.json
$FTQC verify --format csv --config demo/verify.json
# only verify reads FTQC_SEED, so a malformed value must not stop a plan
FTQC_SEED=x $FTQC plan --config demo/plan.json

# demo/verify.json reads out explicit effects; this one the computational basis
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/verify_basis.json" <<'JSON'
{"circuit": "demo/bell_circuit.json",
 "computation": {"inputs": ["00", "01", "10", "11"], "outputs": ["00", "01", "10", "11"],
                 "truth_table": {"00": "00", "01": "01", "10": "10", "11": "11"},
                 "povm": "computational_basis"},
 "noise": {"kind": "depolarizing", "strength": 0.05}}
JSON
$FTQC verify --config "$tmp/verify_basis.json"

# noiseless: the ideal outputs come from the circuit's unitary and the actual
# ones from gate-by-gate evolution at strength 0; the combined bound must hold
cat > "$tmp/verify_noiseless.json" <<'JSON'
{"circuit": "demo/bell_circuit.json",
 "computation": "demo/bell_parity_computation.json",
 "noise": {"kind": "none"},
 "random_search_trials": 16}
JSON
$FTQC verify --config "$tmp/verify_noiseless.json"

# demo/verify.json's circuit written inline as explicit matrices: a named gate
# holds its table matrix, so both forms must give the same bytes, JSON and CSV
cat > "$tmp/verify_matrices.json" <<'JSON'
{"circuit": {"num_qubits": 2,
             "gates": [{"matrix": [[0.7071067811865475, 0.7071067811865475],
                                   [0.7071067811865475, -0.7071067811865475]], "targets": [0]},
                       {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        "targets": [0, 1]}]},
 "computation": "demo/bell_parity_computation.json",
 "noise": {"kind": "depolarizing", "strength": 0.1},
 "random_search_trials": 200,
 "seed": 7}
JSON
for format in json csv; do
    $FTQC verify --format $format --config demo/verify.json > "$tmp/named.$format"
    $FTQC verify --format $format --config "$tmp/verify_matrices.json" > "$tmp/matrices.$format"
    if ! cmp "$tmp/named.$format" "$tmp/matrices.$format"; then
        echo "run_all.sh: the circuit as explicit matrices changed the $format report" >&2
        exit 1
    fi
done

# a search past 63 repetitions, which starts at its Cornish-Fisher estimate
echo '{"p_prime": 0.485, "target": 0.99}' > "$tmp/vote_search.json"
$FTQC vote --config "$tmp/vote_search.json" > "$tmp/vote_search.out"
cat "$tmp/vote_search.out"
if ! grep -q '"repetitions": 6011' "$tmp/vote_search.out"; then
    echo "run_all.sh: the vote search did not answer 6011 repetitions" >&2
    exit 1
fi

# a 3-qubit repetition code read out by majority vote: the combined bound
# must hold, though alpha bounds the state and not the decoded result
$FTQC verify --config demo/repetition.json > "$tmp/repetition.out"
cat "$tmp/repetition.out"
if ! grep -q '"bound_holds": true' "$tmp/repetition.out"; then
    echo "run_all.sh: the repetition-code report does not hold its bound" >&2
    exit 1
fi

# a 6-qubit search of 40 trials runs as 3 blocks of 16, each trial drawn from
# one generator reset to key (seed, trial): the value must be the one that a
# new generator per trial gave
cat > "$tmp/verify_six.json" <<'JSON'
{"circuit": {"num_qubits": 6,
             "gates": [{"name": "H", "targets": [0]}, {"name": "H", "targets": [1]},
                       {"name": "H", "targets": [2]}, {"name": "H", "targets": [3]},
                       {"name": "H", "targets": [4]}, {"name": "H", "targets": [5]},
                       {"name": "CNOT", "targets": [0, 1]}, {"name": "CNOT", "targets": [1, 2]},
                       {"name": "CNOT", "targets": [2, 3]}, {"name": "CNOT", "targets": [3, 4]},
                       {"name": "CNOT", "targets": [4, 5]}]},
 "computation": {"inputs": ["000000"], "truth_table": {"000000": "000000"},
                 "povm": "computational_basis",
                 "outputs": ["000000", "000001", "000010", "000011", "000100", "000101", "000110", "000111",
                             "001000", "001001", "001010", "001011", "001100", "001101", "001110", "001111",
                             "010000", "010001", "010010", "010011", "010100", "010101", "010110", "010111",
                             "011000", "011001", "011010", "011011", "011100", "011101", "011110", "011111",
                             "100000", "100001", "100010", "100011", "100100", "100101", "100110", "100111",
                             "101000", "101001", "101010", "101011", "101100", "101101", "101110", "101111",
                             "110000", "110001", "110010", "110011", "110100", "110101", "110110", "110111",
                             "111000", "111001", "111010", "111011", "111100", "111101", "111110", "111111"]},
 "noise": {"kind": "depolarizing", "strength": 0.01},
 "random_search_trials": 40, "seed": 7}
JSON
$FTQC verify --config "$tmp/verify_six.json" > "$tmp/verify_six.out"
cat "$tmp/verify_six.out"
if ! grep -q '"alpha_random_search": 0.174597759683$' "$tmp/verify_six.out"; then
    echo "run_all.sh: the 6-qubit search did not give alpha_random_search 0.174597759683" >&2
    exit 1
fi

# expected refusals: the console script passes main's exit code through
expect() {
    want=$1
    shift
    code=0
    "$@" || code=$?
    if [ "$code" -ne "$want" ]; then
        echo "run_all.sh: '$*' exited $code, expected $want" >&2
        exit 1
    fi
}
echo '{"p_prime": 0.15, "k": 4}' > "$tmp/vote_even.json"
expect 1 $FTQC vote --config "$tmp/vote_even.json"
echo '{"p_prime": 0.15, "k": 3, "repetitions": 3}' > "$tmp/vote_unknown_key.json"
expect 2 $FTQC vote --config "$tmp/vote_unknown_key.json"
echo '{"p_prime": 0.4996, "target": 0.97}' > "$tmp/vote_cap.json"
expect 1 $FTQC vote --config "$tmp/vote_cap.json"
# only verify draws random numbers, so only verify takes a seed
expect 2 $FTQC plan --config demo/plan.json --seed 3
echo '{"p_prime": 0.15, "k": 3, "seed": 1}' > "$tmp/vote_seed.json"
expect 2 $FTQC vote --config "$tmp/vote_seed.json"
# a mistyped key beside an unknown gate: the whole config is read before
# anything is built, so the config error (exit 2) is the one reported
cat > "$tmp/verify_mixed_faults.json" <<'JSON'
{"circuit": {"num_qubits": 2, "gates": [{"name": "HH", "targets": [0]}]},
 "computation": "demo/bell_parity_computation.json",
 "noise": {"kind": "depolarizing", "strength": 0.1},
 "random_search_trials": "many"}
JSON
expect 2 $FTQC verify --config "$tmp/verify_mixed_faults.json"
# a 2-qubit circuit under 3-bit labels, one of which is also too short: the
# width mismatch is a config error, reported before any basis state is built
cat > "$tmp/verify_width_mismatch.json" <<'JSON'
{"circuit": "demo/bell_circuit.json",
 "computation": {"inputs": ["000", "01"], "outputs": ["000", "01"],
                 "truth_table": {"000": "000", "01": "01"},
                 "povm": "computational_basis"},
 "noise": {"kind": "none"}}
JSON
expect 2 $FTQC verify --config "$tmp/verify_width_mismatch.json"
# a gate matrix whose unitarity defect overflows to NaN is refused, with one
# stderr line and no NumPy warning before it
cat > "$tmp/verify_nan_gate.json" <<'JSON'
{"circuit": {"num_qubits": 1,
             "gates": [{"matrix": [[[0, -1e200], [0, -1e200]], [[0, -1e200], -1e200]], "targets": [0]}]},
 "computation": {"inputs": ["0"], "outputs": ["0", "1"], "truth_table": {"0": "0"},
                 "povm": "computational_basis"},
 "noise": {"kind": "none"}}
JSON
code=0
$FTQC verify --config "$tmp/verify_nan_gate.json" 2> "$tmp/nan_gate.err" || code=$?
lines=$(wc -l < "$tmp/nan_gate.err")
if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ]; then
    echo "run_all.sh: the NaN gate exited $code with $lines stderr line(s), expected 1 and 1" >&2
    cat "$tmp/nan_gate.err" >&2
    exit 1
fi
# a gate target past the register is refused by the one qubit-list check,
# with one stderr line naming the targets and the register
cat > "$tmp/verify_target_range.json" <<'JSON'
{"circuit": {"num_qubits": 2, "gates": [{"name": "CNOT", "targets": [0, 5]}]},
 "computation": "demo/bell_parity_computation.json",
 "noise": {"kind": "none"}}
JSON
code=0
$FTQC verify --config "$tmp/verify_target_range.json" 2> "$tmp/target_range.err" || code=$?
want='error: gate targets (0, 5) out of range for 2 qubit(s)'
if [ "$code" -ne 1 ] || [ "$(cat "$tmp/target_range.err")" != "$want" ]; then
    echo "run_all.sh: the target past the register exited $code, expected 1 and one line: $want" >&2
    cat "$tmp/target_range.err" >&2
    exit 1
fi
