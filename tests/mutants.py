"""Mutation checks: each mutant must make at least one of its listed tests fail.

A mutant is (file under src/oicloc, old text, new text, test ids). The runner
copies ``src/`` to a temporary directory, replaces the old text (which must
occur exactly once) and runs only the listed tests against that copy. It
exits nonzero if a mutant survives, if an old text no longer occurs exactly
once (so a refactor must update this list), or if the run exceeds its time
budget. It is not part of the tier-1 suite:

    python tests/mutants.py [--budget SECONDS]
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
JOBS = 2  # mutants run at once, each pytest in its own process


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


STEP = "tests/test_train.py::TestStepIsBitwise"
FIRST_WRITTEN = "tests/test_train.py::TestBackwardMatchesFirstWritten"
DESK_CONV = "tests/test_regressor.py::TestConv1d::test_desk_width_matches_the_per_tap_oracle_bitwise"
POOL_CONV = "tests/test_regressor.py::TestWorkerPool::test_conv_matches_the_per_tap_oracle_bitwise[pool]"
POOL_NET = "tests/test_regressor.py::TestWorkerPool::test_every_split_gives_the_bits_of_one_cpu[pool]"
POOL_SGD = "tests/test_regressor.py::TestSgd::test_halves_match_the_per_tensor_reference[pool]"
SGD = "tests/test_regressor.py::TestSgd"
SGD_HALVES = ("tests/test_regressor.py::TestSgd::"
              "test_either_half_finds_its_non_finite_value_at_paper_width")
FREED = "tests/test_train.py::TestEachMapIsFreedBeforeItsSgdStep"
CAS_SPELLINGS = "tests/test_io.py::TestCasCsv::test_refuses_other_spellings_on_their_line"
CHECKPOINT_VALUES = "tests/test_regressor.py::TestCheckpoint::test_rejects_values_that_cannot_be_right"
GRID_ERRORS = "tests/test_train.py::TestPredictVideo::test_grid_errors_name_the_video"
BLOW_UP = "tests/test_cli.py::TestBadInput::test_a_numeric_blow_up_in_training_is_one_error_line"
# baselines' class refusal, the same text in two functions: told apart by the line after it
CLASS_CHECK = ('if not 1 <= k <= cas.num_classes:\n'
               '        raise InputError(f"class {k} outside 1..{cas.num_classes}")\n    ')
NO_CLASS_CHECK = CLASS_CHECK.replace("not 1 <= k <= cas.num_classes", "False")
JSON_REFUSALS = "tests/test_cli.py::TestBadInput::test_every_json_reader_refuses_bad_input"
VALUE_REFUSALS = ("tests/test_cli.py::TestBadInput::"
                  "test_refuses_a_version_of_another_type_and_an_unknown_segment_key")
SELECT_REFUSALS = ("tests/test_selection.py::TestSelect::"
                   "test_rejects_a_grid_of_another_length_a_class_outside_1_to_k_and_an_unknown_loss")

MUTANTS = [
    # batch-norm backward: drop the 1/n, swap dβ and dγ
    Mutant("regressor.py", "    dz /= xhat.shape[1]\n", "", (STEP, FIRST_WRITTEN)),
    Mutant("regressor.py",
           "np.multiply(xhat, dgamma[:, None], out=dz)\n    dz += dbeta[:, None]",
           "np.multiply(xhat, dbeta[:, None], out=dz)\n    dz += dgamma[:, None]",
           (STEP, FIRST_WRITTEN)),
    # batch-norm forward: the mean and variance as a product with 1/T
    Mutant("regressor.py", "mean /= T", "mean *= 1.0 / T", (STEP,)),
    Mutant("regressor.py", "var /= T", "var *= 1.0 / T", (STEP,)),
    # the worker: a forked child reusing its parent's (threadless) executor,
    # which hangs the child's first pooled conv until the test stops waiting
    # for its report (listed early, as it runs longest); a second CPU not required
    Mutant("regressor.py", "if _pool is None or _pool[0] != os.getpid():", "if _pool is None:",
           ("tests/test_regressor.py::TestWorkerPool::test_a_forked_child_starts_its_own_worker[pool]",)),
    Mutant("regressor.py", "len(os.sched_getaffinity(0)) < 2", "len(os.sched_getaffinity(0)) < 1",
           ("tests/test_regressor.py::TestWorkerPool::"
            "test_conv_matches_the_per_tap_oracle_bitwise[no-pool]",)),
    # conv taps, one code path at both widths: the first tap computed apart
    # and added last, (W1 x1 + W2 x2) + W0 x0; the worker's input-gradient
    # product added out of tap order (the worker takes tap 0's, added after
    # taps 1 and 2); tap 1's weight gradient computed by neither thread
    Mutant("regressor.py", "(np.matmul, w[:, :, -1], xp[:, ksz - 1 :]), _taps, xp, w, T, ksz - 1)",
           "(np.matmul, w[:, :, 0], xp[:, :T]), _taps, xp[:, 1:], w[:, :, 1:], T, ksz - 1)",
           (DESK_CONV, POOL_CONV)),
    Mutant("regressor.py",
           "dx_taps[mid + 1 :]),\n        _tap_grads, xp, w, dy, dw, taps[:mid], dx_taps[: mid + 1], dxp)"
           "\n    for i, product in zip(dx_taps[mid + 1 :], theirs):",
           "dx_taps[:1]),\n        _tap_grads, xp, w, dy, dw, taps[:mid], dx_taps[1:], dxp)"
           "\n    for i, product in zip(dx_taps[:1], theirs):", (DESK_CONV, POOL_CONV)),
    Mutant("regressor.py", "(_tap_grads, xp, w, dy, dw, taps[mid:],",
           "(_tap_grads, xp, w, dy, dw, taps[mid + 1 :],", (DESK_CONV, POOL_CONV)),
    # buffers held past their last read: this thread's input-gradient
    # products all made before any is added; a layer's incoming gradient
    # kept through its conv backward; the forward cache (which holds the
    # map's buffer) kept until the SGD step; the map kept by train_network
    # while the step that reads it runs
    Mutant("regressor.py", "    for i in dx_taps:\n        dxp[:, i : i + T] += w[:, :, i].T @ dy\n",
           "    for i, product in [(i, w[:, :, i].T @ dy) for i in dx_taps]:\n"
           "        dxp[:, i : i + T] += product\n",
           ("tests/test_regressor.py::TestConv1d::test_a_hidden_layer_backward_holds_dx_and_one_product",)),
    Mutant("regressor.py", "            del dx, xhat, relu_mask  # read",
           "            del xhat, relu_mask  # read",
           ("tests/test_regressor.py::TestNetworkB::"
            "test_backward_lets_go_of_each_layers_incoming_gradient",)),
    Mutant("train.py", "    del feat  #", "    pass  #", (FREED,)),
    # backward reading each layer's record from the cache without popping it,
    # so the cache keeps every layer's input until backward returns
    Mutant("regressor.py", "relu_mask), w = cache.pop(),", "relu_mask), w = cache[i],",
           ("tests/test_regressor.py::TestNetworkB::"
            "test_a_layers_input_is_freed_once_its_conv_backward_has_read_it",)),
    Mutant("train.py", "held, feat = [feat], None", "held = [feat]", (FREED,)),
    # the batch statistics written into each other's running-statistic row
    Mutant("regressor.py", "mean, var = batch[2 * i], batch[2 * i + 1]",
           "var, mean = batch[2 * i], batch[2 * i + 1]", (STEP,)),
    # the prediction layer's bias added before its last tap
    Mutant("regressor.py", '        reg += last\n        reg += self.params["pred.b"][:, None]\n',
           '        reg += self.params["pred.b"][:, None]\n        reg += last\n', (STEP,)),
    # the worker joined only when this thread's work succeeds
    Mutant("regressor.py", "    finally:\n        theirs = job.result()\n",
           "    except ValueError:\n        raise\n    theirs = job.result()\n",
           ("tests/test_regressor.py::TestWorkerPool::"
            "test_the_worker_is_joined_before_an_error_surfaces[pool]",)),
    # a job on the worker run outside the caller's context (NumPy error state)
    Mutant("regressor.py", "pool.submit(contextvars.copy_context().run, *there)",
           "pool.submit(*there)",
           ("tests/test_regressor.py::TestWorkerPool::"
            "test_a_job_on_the_worker_runs_under_the_callers_error_state[pool]",)),
    # the worker handed to a job running on it
    Mutant("regressor.py", "or threading.current_thread().name.startswith(_WORKER_NAME)):",
           "or False):",
           ("tests/test_regressor.py::TestWorkerPool::"
            "test_a_job_on_the_worker_is_not_handed_the_worker[pool]",)),
    # an empty corpus refused with a bare ValueError
    Mutant("train.py", 'raise InputError("training requires', 'raise ValueError("training requires',
           ("tests/test_train.py::TestTrainNetwork::test_empty_corpus_is_an_input_error",)),
    # prediction: a grid error without the video's id
    Mutant("train.py", 'with naming(f"video {video.video_id}", TrainingError):',
           'with naming(f"video {video.video_id}", InputError):', (GRID_ERRORS,)),
    # the one naming helper dropping its prefix: every file, entry, iteration
    # and video left out of the error line
    Mutant("errors.py", 'raise kind(f"{where}: {exc}") from None', "raise", (JSON_REFUSALS,)),
    # a non-finite regression map refused as bad input, not as a numeric blow-up
    Mutant("selection.py", 'raise TrainingError("regression values must be finite")',
           'raise InputError("regression values must be finite")',
           ("tests/test_selection.py::TestBuildCandidates::test_rejects_non_finite_regression",
            "tests/test_train.py::TestTrainNetwork::"
            "test_non_finite_map_names_the_iteration_and_video")),
    # training: the lift pending on the worker left running when a step raises
    Mutant("train.py", "pending.exception()", "pending.done()",
           ("tests/test_train.py::TestLiftAhead::"
            "test_the_pending_lift_is_joined_before_an_error_surfaces[pool]",)),
    # a checkpoint payload shorter than its header's tensors is not refused
    Mutant("regressor.py", "if len(payload) != size:", "if len(payload) > size:",
           ("tests/test_regressor.py::TestCheckpoint::test_v3_rejects_a_truncated_file",)),
    # checkpoint values: a non-finite value, a negative running variance let through
    Mutant("regressor.py", "if not np.isfinite(chunk).all():", "if False:", (CHECKPOINT_VALUES,)),
    Mutant("regressor.py", "(chunk < 0).any()", "(chunk < -1).any()", (CHECKPOINT_VALUES,)),
    # row halves: the bottom half one row short at odd widths (row `half`
    # never done); the halves overlapping by one row, so the SGD step updates
    # one element twice
    Mutant("regressor.py", "    bottom = [a[half:] for a in arrays]\n",
           "    bottom = [a[-half:] for a in arrays]\n", (POOL_NET,)),
    Mutant("regressor.py", "    top = [a[:half] for a in arrays]\n",
           "    top = [a[: half + 1] for a in arrays]\n", (POOL_SGD,)),
    # the zero-border check scans only the left border column
    Mutant("regressor.py", "not buf[:, :: T + 1].any()", "not buf[:, :1].any()",
           ("tests/test_regressor.py::TestNetworkB::test_any_other_map_is_copied_bit_identically",)),
    # the CAS reader: a bare \n in a \r\n file, quotes, a header that only
    # starts with "snippet", rows wider than the header, index spellings
    # int() reads, a refused cell put on the line before its own
    Mutant("io.py", 'crs == text.count("\\n") == text.count("\\r\\n")', 'crs == text.count("\\r\\n")',
           (CAS_SPELLINGS,)),
    Mutant("io.py", "if quote >= 0:", "if False:", (CAS_SPELLINGS,)),
    Mutant("io.py", "if lines[0] != _cas_header(K):", 'if not lines[0].startswith("snippet"):',
           ("tests/test_io.py::TestCasCsv::test_rejects_bad_header",)),
    Mutant("io.py", "if len(row) != K + 1:", "if len(row) < K + 1:", (CAS_SPELLINGS,)),
    Mutant("io.py", "if row[0] != str(t):", "if int(row[0]) != t:", (CAS_SPELLINGS,)),
    Mutant("io.py", "{i // K + 2}", "{i // K + 1}",
           ("tests/test_cli.py::TestBadInput::test_non_numeric_cas_cell",)),
    # eval against a manifest without ground truth reaching map_report;
    # ablate checking its test manifest only after training; a NumPy
    # overflow warning printed next to the error line
    Mutant("cli.py", '    if not gts:\n        raise InputError(f"--manifest',
           '    if False:\n        raise InputError(f"--manifest',
           ("tests/test_cli.py::TestBadInput::test_eval_against_a_manifest_without_ground_truth",)),
    Mutant("cli.py", "    if not gts:  # refused before", "    if False:  # refused before",
           ("tests/test_cli.py::TestBadInput::"
            "test_ablate_refuses_a_test_manifest_without_ground_truth_before_training",)),
    Mutant("cli.py", 'np.errstate(all="ignore")', "np.errstate()", (BLOW_UP,)),
    # an empty manifest let through to training; eval's activitynet profile
    # scored on the thumos grid
    Mutant("cli.py", "    if not videos:\n", "    if False:\n",
           ("tests/test_cli.py::TestBadInput::test_manifest_that_lists_no_videos",)),
    Mutant("cli.py", "else evaluation.ACTIVITYNET_THRESHOLDS", "else evaluation.THUMOS_THRESHOLDS",
           ("tests/test_cli.py::TestTrainPredictEval::"
            "test_eval_activitynet_profile_scores_its_ten_thresholds",)),
    # a negative --seed let through to NumPy
    Mutant("cli.py", "if value < 0:", "if value < -1:",
           ("tests/test_cli.py::TestBadInput::test_negative_seed_is_refused_by_the_parser",)),
    # build_candidates' shape error with the wrong row count; select gating
    # out an activation equal to act_min, dropping a loss equal to loss_max
    Mutant("selection.py", "{2 * M} x T", "{2 / M} x T",
           ("tests/test_selection.py::TestBuildCandidates::test_rejects_wrong_reg_shape",)),
    Mutant("selection.py", "padded[:, 1:-1] >= act_min", "padded[:, 1:-1] > act_min",
           ("tests/test_selection.py::TestSelect::test_activation_exactly_at_the_floor_is_gated_in",)),
    Mutant("selection.py", "(best <= loss_max)", "(best < loss_max)",
           ("tests/test_selection.py::TestSelect::test_loss_exactly_at_the_ceiling_is_kept",)),
    # select: a grid of another length, a class outside 1..K, an unknown loss
    # variant let through; training_loss: a survivor without an outer ring
    Mutant("selection.py", "if grid.x1.shape[0] != T:", "if False:", (SELECT_REFUSALS,)),
    Mutant("selection.py", "if ks.size and not (1 <= ks[0] and ks[-1] <= K):", "if False:",
           (SELECT_REFUSALS,)),
    Mutant("selection.py", 'if loss not in ("oic", "inner"):', "if False:", (SELECT_REFUSALS,)),
    Mutant("selection.py", "if not grid.valid[t, m].all():", "if False:",
           ("tests/test_selection.py::TestTrainingLoss::"
            "test_refuses_a_survivor_without_an_outer_ring",)),
    # training_loss: t_x and t_w slots swapped
    Mutant("selection.py", "slots = np.concatenate([2 * m * T + t, (2 * m + 1) * T + t])",
           "slots = np.concatenate([(2 * m + 1) * T + t, 2 * m * T + t])",
           ("tests/test_selection.py::TestTrainingLoss::test_grad_out_matches_the_add_at_oracle",)),
    # training_loss: the outer bounds chained at a fixed ratio, not the grid's own
    Mutant("selection.py", "grid.w[t, m], grid.alpha,", "grid.w[t, m], 0.25,",
           ("tests/test_selection.py::TestTrainingLoss::test_each_grid_carries_its_own_alpha",)),
    # training_loss: the survivors summed in select's order, not (class, position) order
    Mutant("selection.py", "order = np.lexsort((t, k))", "order = np.arange(k.size)",
           ("tests/test_selection.py::TestTrainingLoss::"
            "test_total_sums_the_kernel_losses_in_class_then_position_order",)),
    # select: equal losses keep the last minimum, i.e. the larger anchor
    Mutant("selection.py", "best_m = losses.argmin(axis=1)",
           "best_m = M - 1 - losses[:, ::-1].argmin(axis=1)",
           ("tests/test_selection.py::TestSelect::"
            "test_equal_losses_keep_the_smaller_anchor_where_nms_cannot_hide_it",)),
    # build_candidates: an infinite length w_a * exp(t_w) not refused
    Mutant("selection.py", "if np.isinf(w).any():", "if False:",
           ("tests/test_selection.py::TestBuildCandidates::"
            "test_overflowing_length_raises_training_error",)),
    # nms_order ranks by hi before lo
    Mutant("selection.py", "np.lexsort((hi, lo, -score))", "np.lexsort((lo, hi, -score))",
           ("tests/test_selection.py::TestNmsOracle",)),
    # to_predictions sorts by class before start
    Mutant("selection.py", "np.lexsort((k, start_s, -score))", "np.lexsort((start_s, k, -score))",
           ("tests/test_selection.py::TestToPredictions",)),
    # enumeration: every row block after the first scored as the first
    Mutant("baselines.py", "x1 + (r0 + 1)", "x1 + 1",
           ("tests/test_baselines.py::TestEnumeration::test_row_blocks_give_the_one_block_predictions",)),
    # a zero count (a spec with no class) or a zero plateau accepted; the
    # central notch's fallback placed against the instance's end
    Mutant("io.py", "_is_int(v) and v >= 1,", "_is_int(v) and v >= 0,",
           ("tests/test_synth.py::TestSynthSpec::test_rejects_no_classes",)),
    Mutant("synth.py", "_is_number(v) and 0 < v <= 1,", "_is_number(v) and 0 <= v <= 1,",
           ("tests/test_synth.py::TestSynthSpec::test_rejects_mistyped_or_bad_field",)),
    Mutant("synth.py", "lo = hi = max(s + 1, min(e - width, s + (e - s) // 2))",
           "lo = hi = s + (e - s) // 2",
           ("tests/test_synth.py::TestSynthCorpus::"
            "test_central_dip_without_room_in_the_middle_third_fills_the_interior",)),
    # inflate accepting a ratio of 0; a NaN ratio let through by the check of old
    Mutant("boundary.py", "if not 0 < alpha < math.inf:", "if not 0 <= alpha < math.inf:",
           ("tests/test_boundary.py::TestClipInflate::test_rejects_a_ratio_that_is_not_positive",)),
    Mutant("boundary.py", "if not 0 < alpha < math.inf:", "if alpha <= 0:",
           ("tests/test_boundary.py::TestClipInflate::test_rejects_a_ratio_that_is_not_finite",)),
    # a video id that is not a file name, or one that two manifest entries share, accepted
    Mutant("cas.py",
           'if self.video_id in ("", ".", "..") or "/" in self.video_id or "\\0" in self.video_id:',
           "if False:",
           ("tests/test_cas.py::TestVideoRecord::test_rejects_an_id_that_is_not_a_file_name",)),
    Mutant("io.py", "if j != i:", "if False:",
           ("tests/test_io.py::TestManifest::test_repeated_video_id_names_both_entries",)),
    # oic_areas: the inner box summed with rx1 and rx2 swapped
    Mutant("oic.py", "inner_sum = csum[k, rx2 + 1] - csum[k, rx1]",
           "inner_sum = csum[k, rx1 + 1] - csum[k, rx2]",
           ("tests/test_oic.py::TestForward::test_matches_brute_force",)),
    # transform_backward: the outer start ignores the minimum-offset regime
    Mutant("boundary.py", "dX1_dtw = np.where(min_offset, -w / 2.0, -w / 2.0 - alpha * w)",
           "dX1_dtw = -w / 2.0 - alpha * w",
           ("tests/test_boundary.py::TestTransformBackward::test_tw_min_offset_regime",)),
    # average precision: integer seconds kept as integers; an IoU at the
    # threshold matches; ties keep the last best
    Mutant("evaluation.py", "dtype=np.float64).T", ").T",
           ("tests/test_eval.py::TestAveragePrecisionOracle",)),
    Mutant("evaluation.py", "hit = ov > iou_thresh", "hit = ov >= iou_thresh",
           ("tests/test_eval.py::TestAveragePrecisionOracle", "tests/test_eval.py::TestHandFixture")),
    Mutant("evaluation.py", "if v > best_iou and j not in matched:",
           "if v >= best_iou and j not in matched:",
           ("tests/test_eval.py::TestAveragePrecision::test_equal_ious_match_the_first_listed_gt",)),
    # sgd_step: no finite check of the updated parameters (in training, a
    # blown-up checkpoint is written), a non-finite half let through when
    # the other half is finite, a non-finite gradient not named as such,
    # decay sign, momentum order, no lr, the velocity started at one instead
    # of zero
    Mutant("regressor.py", "    return np.isfinite(p).all()\n", "    return True\n", (SGD, BLOW_UP)),
    Mutant("regressor.py", "if not all(_in_halves(", "if not any(_in_halves(", (SGD_HALVES + "[pool-top]",)),
    Mutant("regressor.py", '(("gradient", grads), ("parameter", net.params))',
           '(("parameter", net.params),)', (SGD,)),
    Mutant("regressor.py", "update = decay * p", "update = -decay * p", (SGD,)),
    Mutant("regressor.py", "    v *= momentum\n    v += update\n",
           "    v += update\n    v *= momentum\n", (SGD,)),
    Mutant("regressor.py", "np.multiply(v, lr, out=update)", "np.multiply(v, 1.0, out=update)",
           (SGD,)),
    Mutant("regressor.py", "np.zeros(p.size)", "np.ones(p.size)", (SGD,)),
    # the JSON readers: unknown keys, missing keys, a repeated key or a value
    # that fails its rule let through; a manifest's ground truth segments
    # not checked; a config or checkpoint version of another type than int
    # equal to the supported version accepted
    Mutant("io.py", "if not obj.keys() <= rules.keys():", "if False:", (JSON_REFUSALS,)),
    Mutant("io.py", "        if not check(value):\n", "        if False:\n", (JSON_REFUSALS,)),
    Mutant("io.py", 'enumerate(entry.get("gt", ()))', "enumerate(())", (VALUE_REFUSALS,)),
    Mutant("config.py", "_is_int(v) and v == CONFIG_VERSION", "v == CONFIG_VERSION",
           (VALUE_REFUSALS,)),
    Mutant("regressor.py", "_is_int(v) and v == CHECKPOINT_VERSION", "v == CHECKPOINT_VERSION",
           (VALUE_REFUSALS,)),
    Mutant("io.py", "if not obj.keys() >= required:", "if False:", (JSON_REFUSALS,)),
    Mutant("io.py", "if len(obj) < len(pairs):", "if False:", (JSON_REFUSALS,)),
    # thresholding and enumeration reading a class outside 1..K
    Mutant("baselines.py", CLASS_CHECK + "if not (0.0 < tau", NO_CLASS_CHECK + "if not (0.0 < tau",
           ("tests/test_baselines.py::TestThresholdLocalize::test_rejects_a_class_outside_1_to_k",)),
    Mutant("baselines.py", CLASS_CHECK + "T = cas.num_snippets", NO_CLASS_CHECK + "T = cas.num_snippets",
           ("tests/test_baselines.py::TestEnumeration::test_rejects_a_class_outside_1_to_k",)),
    # gt_instances: the segments left unstamped with their video's id
    Mutant("evaluation.py", "replace(g, video_id=v.video_id)", "g",
           ("tests/test_eval.py::TestReport::test_gt_instances_flattens_videos",)),
]


def _pytest(src: Path, tests: tuple[str, ...], pycache: str, timeout: float) -> int:
    """pytest's exit code for ``tests`` run against the package in ``src``.
    Bytecode, pytest's rewritten test modules and plugins included, goes
    under ``pycache``, so later runs skip recompiling what an earlier one
    did; each mutant's copy of ``src/`` has its own path there."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=pycache)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=timeout).returncode


def _copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _verdict(mutant: Mutant, pycache: str, deadline: float) -> str:
    """How one mutant, applied to its own copy of ``src/``, fared."""
    with tempfile.TemporaryDirectory(prefix="oicloc-mutant-") as tmp:
        target = _copy_src(tmp) / "oicloc" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"MISSING (the old text occurs {text.count(mutant.old)} times)"
        target.write_text(text.replace(mutant.old, mutant.new))
        try:
            code = _pytest(target.parents[1], mutant.tests, pycache,
                           max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return "TIMEOUT"
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit code {code})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=120.0, help="seconds for the whole run")
    args = parser.parse_args(argv)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="oicloc-mutants-") as tmp:
        src = _copy_src(tmp)
        # the copies must be what the tests import, not an installed package
        probe = subprocess.run([sys.executable, "-c", "import oicloc; print(oicloc.__file__)"],
                               env={**os.environ, "PYTHONPATH": str(src)}, cwd=ROOT,
                               capture_output=True, text=True)
    if not Path(probe.stdout.strip()).resolve().is_relative_to(src.resolve()):
        print(f"ERROR: oicloc imports from {probe.stdout.strip() or probe.stderr.strip()}")
        return 1
    with (tempfile.TemporaryDirectory(prefix="oicloc-pycache-") as pycache,
          ThreadPoolExecutor(JOBS) as pool):
        verdicts = pool.map(_verdict, MUTANTS, [pycache] * len(MUTANTS),
                            [start + args.budget] * len(MUTANTS))
        failures = 0
        for mutant, verdict in zip(MUTANTS, verdicts):
            print(f"{mutant.file}: {mutant.old.strip().splitlines()[0]}: {verdict}")
            failures += verdict != "killed"
    elapsed = time.monotonic() - start
    print(f"{len(MUTANTS)} mutants, {failures} not killed, {elapsed:.1f}s of {args.budget:.0f}s")
    return 1 if failures or elapsed > args.budget else 0


if __name__ == "__main__":
    sys.exit(main())
