#!/usr/bin/env bash
# Tier-1 gate plus lint. Everything runs offline against the vendored
# proptest/criterion stubs; no registry access is required.
set -euo pipefail
cd "$(dirname "$0")"

# Non-gating size ledger: the two counts every change records in
# CHANGES.md. `rust_lines` is tracked Rust outside benchmark/ and vendor/;
# `uae_knobs` is the distinct "UAE_*" literals in crates/ and src/.
echo "==> size ledger (non-gating)"
rust_lines=$(git ls-files '*.rs' | grep -v -e '^benchmark/' -e '^vendor/' | xargs cat | wc -l) || rust_lines='?'
uae_knobs=$(grep -rhoE '"UAE_[A-Z0-9_]+"' --include='*.rs' crates src | sort -u | wc -l) || uae_knobs='?'
echo "rust_lines $rust_lines"
echo "uae_knobs $uae_knobs"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The benchmark is its own package over the workspace crates: build it,
# run its unit tests and a smoke pass here, so an API change that breaks it
# fails CI instead of the benchmark run.
echo "==> benchmark package (build, tests, --smoke)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke >/dev/null

echo "==> cargo test -q --features proptest (property suites)"
cargo test -q -p uae-tensor -p uae-data -p uae-metrics -p uae-core -p uae-obs -p uae-nn \
    --features uae-tensor/proptest,uae-data/proptest,uae-metrics/proptest,uae-core/proptest,uae-obs/proptest,uae-nn/proptest

# The serving crate's own suites: the daemon chaos contracts, the `.uaem`
# transports (`open` maps; hashed artifacts encode smaller) and the fuzz suite.
echo "==> cargo test -q -p uae-serve"
cargo test -q -p uae-serve

# The model zoo, runtime and evaluation crates' own suites: the root
# `cargo test` covers only the `uae` package, and no step above names them.
echo "==> cargo test -q -p uae-models -p uae-runtime -p uae-eval"
cargo test -q -p uae-models -p uae-runtime -p uae-eval

# The compute backend must be bit-identical at every thread count; run the
# kernel-level and end-to-end determinism suites under both settings to catch
# any env-path nondeterminism the scoped-override tests could miss.
echo "==> determinism suites under UAE_NUM_THREADS=1 and =4"
for nt in 1 4; do
    UAE_NUM_THREADS=$nt cargo test -q -p uae-tensor --test parallel_determinism
    UAE_NUM_THREADS=$nt cargo test -q -p uae-core --test thread_determinism
    # The pre-refactor training fingerprints (parameter, checkpoint and
    # prediction bytes): every bit-identity claim about the fit path rests
    # on this gate.
    UAE_NUM_THREADS=$nt cargo test -q -p uae-core --test refactor_identity
    UAE_NUM_THREADS=$nt cargo test -q --test exec_equivalence
    # Resume and rollback must be bit-identical at every thread count: the
    # recovery protocol's behaviour and its pinned checkpoint/rollback bytes.
    UAE_NUM_THREADS=$nt cargo test -q --test fault_tolerance
    UAE_NUM_THREADS=$nt cargo test -q --test recovery_identity
    # Daemon integration suite (includes hot-reload determinism: scores
    # must be bit-identical across a generation swap under load).
    UAE_NUM_THREADS=$nt cargo test -q -p uae-serve --test daemon
done

# `.cargo/config.toml` builds x86_64 at x86-64-v3 (AVX2, FMA). The baseline
# ISA stays the tested reference: a build at `-C target-cpu=x86-64`
# (RUSTFLAGS overrides the config file), in its own target dir, must hit
# the same pinned fingerprints at both thread counts.
if [ "$(uname -m)" = x86_64 ]; then
    echo "==> x86-64 baseline build: same bits as the x86-64-v3 build (UAE_NUM_THREADS=1 and =4)"
    (
        export RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64-baseline
        for nt in 1 4; do
            UAE_NUM_THREADS=$nt cargo test -q -p uae-core --test refactor_identity
            UAE_NUM_THREADS=$nt cargo test -q --test recovery_identity
            UAE_NUM_THREADS=$nt cargo test -q --test exec_equivalence
            UAE_NUM_THREADS=$nt cargo test -q -p uae-tensor --test parallel_determinism
        done
    )
fi

echo "==> committed MATRIX.jsonl (full estimator x scenario grid; UAE beats PN on baseline)"
python3 -c "
import json
cells = {}
for line in open('MATRIX.jsonl'):
    c = json.loads(line)
    key = (c['scenario'], c['estimator'])
    assert key not in cells, f'duplicate matrix cell {key}'
    cells[key] = c
scenarios = sorted({s for s, _ in cells})
estimators = sorted({e for _, e in cells})
assert len(scenarios) >= 4, f'matrix covers only {scenarios}'
for est in ('uae', 'pn', 'ndb', 'rel-mf', 'biser', 'adpu'):
    assert est in estimators, f'estimator {est} missing from the matrix'
missing = [(s, e) for s in scenarios for e in estimators if (s, e) not in cells]
assert not missing, f'matrix has missing cells: {missing}'
for c in cells.values():
    assert 0.0 <= c['auc'] <= 1.0 and abs(c['bias']) <= 1.0 and c['variance'] >= 0.0, c
# The paper's headline claim, held as a standing gate: the unbiased dual
# estimator ranks attention better than naive PN on the baseline
# (Product-like) scenario.
uae_auc = cells[('baseline', 'uae')]['auc']
pn_auc = cells[('baseline', 'pn')]['auc']
assert uae_auc > pn_auc, f'UAE baseline attention AUC {uae_auc:.4f} does not beat PN {pn_auc:.4f}'
print(f'MATRIX.jsonl OK: {len(scenarios)} scenarios x {len(estimators)} estimators, '
      f'baseline AUC uae {uae_auc:.4f} > pn {pn_auc:.4f}')
"

echo "==> telemetry smoke (JSONL sink + summarize round-trip)"
rm -f /tmp/uae_ci_telemetry.jsonl
UAE_TELEMETRY=/tmp/uae_ci_telemetry.jsonl ./target/release/uae smoke >/dev/null
python3 -c "
import json, platform
lines = [l for l in open('/tmp/uae_ci_telemetry.jsonl') if l.strip()]
assert lines, 'telemetry log is empty'
records = [json.loads(l) for l in lines]
first = records[0]
assert first['type'] == 'run_manifest', first
assert first['seq'] == 0 and first['run'] == 'smoke', first
for k in ('version', 'seed', 'threads', 'kernel_mode', 'config'):
    assert k in first, k
# The smoke trains on observed labels, and its manifest must say so.
assert first['config']['label_mode'] == 'Observed', first['config']
# An x86_64 build that lost .cargo/config.toml runs at the baseline ISA,
# about 20% slower: fail here instead.
if platform.machine() == 'x86_64':
    assert 'avx2' in first['config']['codegen'], first['config']
kinds = {r['type'] for r in records}
for k in ('phase_start', 'phase_end', 'fit_epoch', 'train_step', 'epoch', 'counter'):
    assert k in kinds, f'missing event kind {k}'
assert [r['seq'] for r in records] == list(range(len(records))), 'seq not dense'
print(f'telemetry smoke OK: {len(records)} records, kinds: {sorted(kinds)}')
"
sum_out=$(./target/release/uae summarize /tmp/uae_ci_telemetry.jsonl)
grep -q "alternating optimization" <<< "$sum_out"
# The unified fit path tags its telemetry with the estimator's name and
# summarize renders the per-estimator table.
grep -q "estimators:" <<< "$sum_out"

echo "==> estimator round-trip (uae fit --estimator / UAE_ESTIMATOR / matrix smoke)"
# Each new related-work estimator must train end to end from the CLI.
for est in rel-mf biser adpu; do
    fit_out=$(./target/release/uae fit --estimator "$est" --scenario position-bias --fast)
    grep -q "test attention AUC" <<< "$fit_out"
done
# An unknown estimator name must fail loudly, not fall back silently.
if ./target/release/uae fit --estimator not-an-estimator --fast 2>/dev/null; then
    echo "unknown estimator name was accepted"; exit 1
fi
# The UAE_ESTIMATOR knob swaps the smoke's estimator, and the estimator
# telemetry round-trips through the JSONL sink into summarize's table.
rm -f /tmp/uae_ci_est_telemetry.jsonl
est_smoke=$(UAE_ESTIMATOR=rel-mf UAE_TELEMETRY=/tmp/uae_ci_est_telemetry.jsonl \
    ./target/release/uae smoke)
grep -q "smoke: Rel-MF" <<< "$est_smoke"
est_sum=$(./target/release/uae summarize /tmp/uae_ci_est_telemetry.jsonl)
grep -q "rel-mf" <<< "$est_sum"
# Matrix smoke slice: 2 estimators x 2 scenarios from the CLI.
matrix_out=$(./target/release/uae matrix --fast)
grep -q "attention AUC" <<< "$matrix_out"
grep -q "position-bias" <<< "$matrix_out"

echo "==> paper-artifact smoke (uae stats / ablations / embed-accuracy / table5, --fast)"
# Non-training and short-training paper artifacts: capture each output (a
# -q reader would SIGPIPE the CLI mid-print) and check one line of each.
stats_out=$(./target/release/uae stats --fast)
grep -q "Fig. 2(c): P(active) by #active actions" <<< "$stats_out"
ablations_out=$(./target/release/uae ablations --fast)
grep -q "ablation 4: downstream DCN-V2" <<< "$ablations_out"
embed_out=$(./target/release/uae embed-accuracy --fast)
grep -q "hashed held-out attention AUC" <<< "$embed_out"
# Table V's attention-quality extension must stay scored on held-out events.
table5_out=$(./target/release/uae table5 --fast)
grep -q "Attention quality on held-out events" <<< "$table5_out"

echo "==> serving smoke (export -> score -> summarize serving section)"
rm -f /tmp/uae_ci_model.uaem /tmp/uae_ci_serve.jsonl
./target/release/uae export /tmp/uae_ci_model.uaem --fast >/dev/null
# Capture instead of piping into grep -q: an early-exiting reader would
# SIGPIPE the CLI mid-print.
score_out=$(UAE_TELEMETRY=/tmp/uae_ci_serve.jsonl ./target/release/uae score /tmp/uae_ci_model.uaem --fast)
grep -q "events/s" <<< "$score_out"
./target/release/uae summarize /tmp/uae_ci_serve.jsonl | grep -q "serving:"

echo "==> daemon smoke + chaos (serve, load, hot-swap, rollback, panic injection, shutdown)"
rm -f /tmp/uae_ci_daemon.log /tmp/uae_ci_model2.uaem /tmp/uae_ci_corrupt.uaem \
    /tmp/uae_ci_daemon_telemetry.jsonl
rm -rf /tmp/uae_ci_flight && mkdir -p /tmp/uae_ci_flight
./target/release/uae export /tmp/uae_ci_model2.uaem --fast >/dev/null
head -c 512 /tmp/uae_ci_model.uaem > /tmp/uae_ci_corrupt.uaem
# Port 0 binds an ephemeral port; the daemon prints it in a parse-stable
# line. UAE_FAULT_PANIC_EVERY makes every 10th micro-batch panic inside a
# worker, so the loads below exercise the restart path on a real process.
# stderr goes to the log too: injected panics print backtraces by design.
# Telemetry on with a fast MetricsSnapshot period, and the flight
# recorder pointed at a scratch dir so panic/rollback dumps land there.
UAE_FAULT_PANIC_EVERY=10 UAE_TELEMETRY=/tmp/uae_ci_daemon_telemetry.jsonl \
    UAE_METRICS_INTERVAL_MS=200 UAE_FLIGHT_RECORDER_DIR=/tmp/uae_ci_flight \
    ./target/release/uae serve /tmp/uae_ci_model.uaem > /tmp/uae_ci_daemon.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" /tmp/uae_ci_daemon.log && break
    sleep 0.1
done
addr=$(sed -n 's/^listening on //p' /tmp/uae_ci_daemon.log | head -1)
test -n "$addr" || { echo "daemon never reported its address"; kill "$daemon_pid"; exit 1; }
./target/release/uae serve-ctl "$addr" ping | grep -q "pong"
# Well-formed load, then chaos load (malformed frames + mid-request
# disconnects): the zero-drop contract must hold through both, worker
# panics included — they come back as typed errors, never silence.
# Capture serve-load output (it prints past the grep target; a -q reader
# would SIGPIPE it) and check both the zero-drop and zero-orphan lines.
load_out=$(./target/release/uae serve-load "$addr" --fast --requests 10)
grep -q "all_accounted true" <<< "$load_out"
grep -q "zero_orphans true" <<< "$load_out"
chaos_out=$(./target/release/uae serve-load "$addr" --fast --chaos --requests 25)
grep -q "all_accounted true" <<< "$chaos_out"
grep -q "chaos: injected" <<< "$chaos_out"
# Hot swap onto a fresh artifact, then a corrupt swap that must be
# rejected with a rollback while the daemon keeps serving last-good.
./target/release/uae serve-ctl "$addr" swap /tmp/uae_ci_model2.uaem | grep -q "generation 2"
if ./target/release/uae serve-ctl "$addr" swap /tmp/uae_ci_corrupt.uaem 2>/dev/null; then
    echo "corrupt swap unexpectedly succeeded"; kill "$daemon_pid"; exit 1
fi
postswap_out=$(./target/release/uae serve-load "$addr" --fast --requests 5)
grep -q "generations seen: \[2\]" <<< "$postswap_out"
stats_out=$(./target/release/uae serve-ctl "$addr" stats)
grep -q "swap_rollbacks 1" <<< "$stats_out"
restarts=$(sed -n 's/.*worker_restarts \([0-9]*\).*/\1/p' <<< "$stats_out")
test "${restarts:-0}" -ge 1 || { echo "panic injection never fired (worker_restarts=$restarts)"; kill "$daemon_pid"; exit 1; }
# Trace-complete check: the loads above are closed-loop, so at this quiet
# point every minted trace must have been closed — started == completed.
grep -q "request_us" <<< "$stats_out"
t_started=$(sed -n 's/.*traces started \([0-9]*\).*/\1/p' <<< "$stats_out")
t_done=$(sed -n 's/.*completed \([0-9]*\).*/\1/p' <<< "$stats_out")
test -n "$t_started" && test "$t_started" -ge 1 && test "$t_started" = "$t_done" \
    || { echo "trace ledger unbalanced (started=$t_started completed=$t_done)"; kill "$daemon_pid"; exit 1; }
# Flight-recorder dump on demand, readable by summarize.
dump_out=$(./target/release/uae serve-ctl "$addr" dump)
dump_path=$(sed -n 's/.*traces to //p' <<< "$dump_out")
test -s "$dump_path" || { echo "serve-ctl dump produced no file ($dump_out)"; kill "$daemon_pid"; exit 1; }
./target/release/uae summarize "$dump_path" | grep -q "traces:"
# One live-dashboard poll of the stats frame. Capture instead of piping
# into grep -q (early-exiting reader would SIGPIPE the CLI mid-print).
top_out=$(./target/release/uae top "$addr" --iterations 1)
grep -q "uae top" <<< "$top_out"
grep -q "request_us" <<< "$top_out"
# Shut down with an idle connection held open: the daemon must still exit
# promptly (shutdown ends the blocked read directly; nothing polls).
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
./target/release/uae serve-ctl "$addr" shutdown | grep -q "shutting down"
for _ in $(seq 100); do kill -0 "$daemon_pid" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$daemon_pid" 2>/dev/null; then
    echo "daemon still running 10 s after shutdown with an idle connection held"
    kill "$daemon_pid"; exit 1
fi
exec 3<&-
wait "$daemon_pid"
# The injected panics must also have dumped the flight recorder.
ls /tmp/uae_ci_flight/uae-flight-*.jsonl >/dev/null \
    || { echo "worker panics never dumped the flight recorder"; exit 1; }
# The daemon telemetry log must carry periodic MetricsSnapshot events with
# real histogram quantiles.
python3 -c "
import json
recs = [json.loads(l) for l in open('/tmp/uae_ci_daemon_telemetry.jsonl') if l.strip()]
snaps = [r for r in recs if r['type'] == 'metrics_snapshot']
assert snaps, 'no metrics_snapshot events in the daemon telemetry log'
names = {h['name'] for s in snaps for h in s.get('hists', [])}
assert 'request_us' in names, f'no request_us histogram in snapshots: {sorted(names)}'
last = [h for h in snaps[-1]['hists'] if h['name'] == 'request_us'][0]
assert last['count'] > 0 and last['p50'] <= last['p99'] <= last['max'], last
print(f'daemon telemetry OK: {len(snaps)} metrics snapshots, hists: {sorted(names)}')
"
echo "daemon smoke OK: swap+rollback, $restarts worker restarts, trace ledger $t_started/$t_done, clean shutdown"

echo "==> downstream-recommender serving smoke (export --model -> sniffing score)"
rm -f /tmp/uae_ci_rec.uaem
./target/release/uae export /tmp/uae_ci_rec.uaem --model dcn --fast >/dev/null
rec_out=$(./target/release/uae score /tmp/uae_ci_rec.uaem --fast)
grep -q "events/s" <<< "$rec_out"
grep -q "DCN" <<< "$rec_out"

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> docs gate (markdown links resolve; UAE_* env vars in code and docs/OPERATIONS.md match; one knob table)"
python3 -c "
import os, re, sys

# --- 1. Relative markdown links in the handbook set must resolve. ---
docs = ['README.md', 'DESIGN.md'] + sorted(
    os.path.join('docs', f) for f in os.listdir('docs') if f.endswith('.md'))
link_re = re.compile(r'\[[^\]]+\]\(([^)\s]+)\)')

def slug(heading):
    # GitHub-style anchor: lowercase, drop punctuation, spaces become dashes.
    h = heading.strip().lower()
    h = re.sub(r'[^\w\- ]', '', h, flags=re.UNICODE)
    return h.replace(' ', '-')

anchors = {}
for doc in docs:
    with open(doc) as f:
        text = f.read()
    heads = re.findall(r'^#+ +(.+)$', text, flags=re.M)
    anchors[doc] = {slug(h) for h in heads}

bad = []
for doc in docs:
    base = os.path.dirname(doc)
    with open(doc) as f:
        text = f.read()
    for target in link_re.findall(text):
        if target.startswith(('http://', 'https://', 'mailto:')):
            continue
        path, _, frag = target.partition('#')
        dest = doc if not path else os.path.normpath(os.path.join(base, path))
        if path and not os.path.exists(dest):
            bad.append(f'{doc}: broken link target {target}')
            continue
        if frag and dest in anchors and frag not in anchors[dest]:
            bad.append(f'{doc}: broken anchor {target}')
for b in bad:
    print(b, file=sys.stderr)
assert not bad, f'{len(bad)} broken markdown link(s)'

# --- 2. Every UAE_* env var read in code appears in docs/OPERATIONS.md. ---
var_re = re.compile(r'\"(UAE_[A-Z0-9_]+)\"')
used = set()
for root in ('crates', 'src'):
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith('.rs'):
                with open(os.path.join(dirpath, name)) as f:
                    used.update(var_re.findall(f.read()))
with open('docs/OPERATIONS.md') as f:
    ops = f.read()
undocumented = sorted(v for v in used if v not in ops)
assert not undocumented, f'env vars read in code but missing from docs/OPERATIONS.md: {undocumented}'

# --- 3. Conversely, every UAE_* named in docs/OPERATIONS.md is read in code,
# so a deleted knob cannot linger in the handbook. ---
stale = sorted(set(re.findall(r'UAE_[A-Z0-9_]*[A-Z0-9]', ops)) - used)
assert not stale, f'docs/OPERATIONS.md names env vars no code reads: {stale}'

# --- 4. docs/OPERATIONS.md is the only home of a UAE_* knob table: a table
# row naming a knob anywhere else is a second copy that drifts. ---
tables = sorted(set(docs) | {f for f in os.listdir('.') if f.endswith('.md')})
copies = [f'{doc}:{n}' for doc in tables if doc != os.path.join('docs', 'OPERATIONS.md')
          for n, line in enumerate(open(doc), 1) if line.startswith('| \x60UAE_')]
assert not copies, f'UAE_* table rows outside docs/OPERATIONS.md: {copies}'
print(f'docs gate OK: {len(docs)} files link-checked, '
      f'{len(used)} UAE_* env vars read in code, all documented in docs/OPERATIONS.md and no others, '
      f'no knob table in {len(tables) - 1} other markdown files')
"

# Lint the workspace and the benchmark package (its own manifest, so the
# workspace run does not reach it).
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "==> cargo clippy (benchmark package) -- -D warnings"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "CI OK"
