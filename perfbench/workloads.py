"""The benchmark's workloads: the paper pipeline split where its layers differ.

Each workload loads its inputs in ``setup`` and then runs operations:

- ``task`` operations are timed, once per repetition in each of several
  fresh interpreters; the medians, each times its ``task_scale``, are
  summed into the gated ``task_s``;
- ``probe`` runs untimed and records what the program refuses to do;
- ``checks`` verify the outputs after the timed region.

Sizes are chosen so that one run of a workload takes 30 to 50 s on one
core. The paper's 3008-bit PEG build (about 60 s) and 16-frame rate-1/6
points (about 65 s) do not fit, so campaign_r12 builds at 1024 bits and
runs its point on a shipped 3008-bit build, and the r16 point has 4 frames.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from hybridldpc import codec, construction, density_evolution, optimization, simulation
from hybridldpc.ensembles import Ensemble, fixture_path

MAX_ITER = 500      # campaign default
OFFSET_DB = 1.0     # operating point above each fixture's DE threshold
BUILD_SEED = 1      # the code is the same for every workload seed; the
                    # seed draws the channel noise and codewords


def operating_point(designs: dict, name: str) -> float:
    """Eb/N0 of the campaign, rounded as scripts/fer_comparison.py does."""
    return round(designs[name]["threshold_ebn0_db"] + OFFSET_DB, 3)


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class DecodeLog:
    """Keeps every DecodeResult returned while installed, with its code,
    so that converged frames can be checked after the timed region."""

    def __init__(self) -> None:
        self.results: list = []
        self._original = None

    def install(self) -> None:
        original = self._original = codec.Decoder.decode
        results = self.results

        def decode(decoder, *args, **kwargs):
            res = original(decoder, *args, **kwargs)
            results.append((decoder.code, res))
            return res

        codec.Decoder.decode = decode

    def uninstall(self) -> None:
        codec.Decoder.decode = self._original

    def take(self) -> list:
        out = list(self.results)
        self.results.clear()
        return out


def converged_unsound(entries: list) -> int:
    """Frames reported as converged whose hard decision is not a codeword."""
    bad = 0
    for code, res in entries:
        if res.success.any():
            synd = codec.syndrome(code, res.symbols[res.success])
            bad += int(np.count_nonzero(synd.any(axis=1)))
    return bad


class Workload:
    name = ""

    def __init__(self, root: str, seed: int, out_dir: str) -> None:
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.outputs: dict = {}

    def setup(self) -> None:
        with open(fixture_path("designs")) as fh:
            self.designs = json.load(fh)

    def task(self) -> list:
        return []

    def task_scale(self, op: str) -> float:
        return 1.0

    def probe(self) -> dict:
        return {}

    def checks(self, decodes: list) -> list[tuple[str, bool, str]]:
        return []


class Design(Workload):
    """DE threshold bisection of the r12 hybrid fixture, then the LP that
    designs the r16 hybrid split at its design point.

    Both are deterministic, so every seed gives the same inputs."""

    name = "design"
    fixture = "r12_hybrid_g8g2"
    lp_fixture = "r16_hybrid_g256g16g8"
    lp_groups = [8, 16, 256]
    tol_db = 0.01

    def setup(self) -> None:
        super().setup()
        self.ens = Ensemble.load(fixture_path(self.fixture))
        for q in sorted(set(self.ens.groups) | set(self.lp_groups)):
            density_evolution.get_table(q)

    def task(self) -> list:
        sigma = self.designs[self.lp_fixture]["design_sigma"]

        def threshold():
            self.outputs["threshold_db"] = density_evolution.threshold_search(
                self.ens, tol_db=self.tol_db)

        def design():
            # the (2, 3) regular split of scripts/optimize_designs.py,
            # pinned at the fixture's final design sigma
            d = optimization.optimize_gamma(2, 3, self.lp_groups, sigma,
                                            rate_eq=1 / 6)
            self.outputs["gamma"] = {str(k): v for k, v in sorted(d.gamma.items())}
            self.outputs["rate"] = d.rate

        # one call each: a second call in the same process would find the
        # J_v families cached
        return [("threshold_search", threshold), ("optimize_gamma", design)]

    def checks(self, decodes: list) -> list[tuple[str, bool, str]]:
        want = self.designs[self.fixture]["threshold_ebn0_db"]
        got = self.outputs.get("threshold_db")
        out = [("threshold_matches_fixture",
                got is not None and abs(got - want) <= self.tol_db,
                f"{got} dB vs {want} dB")]
        want_g = self.designs[self.lp_fixture]["node_fractions"]
        gamma = self.outputs.get("gamma")
        rate = self.outputs.get("rate")
        ok = (gamma is not None and set(gamma) == set(want_g)
              and all(abs(gamma[k] - want_g[k]) < 1e-4 for k in want_g)
              and abs(rate - 1 / 6) < 1e-9)
        out.append(("lp_reproduces_fixture_split", ok, f"gamma {gamma}, rate {rate}"))
        return out


class Campaign(Workload):
    """Shared steps of the two FER campaign workloads: one Monte-Carlo
    point at the operating point with the campaign default of 500
    iterations, on ``self.code``."""

    fixture = ""
    random_codewords = False
    chunk_frames = 0
    point_frames = 0       # frame budget of the point
    ref_iter = 0           # reference mean iterations per frame, for task_s

    def setup(self) -> None:
        super().setup()
        self.ens = Ensemble.load(fixture_path(self.fixture))
        self.ebn0_db = operating_point(self.designs, self.fixture)
        self.rate = self.ens.rate()

    def config(self, frames: int, max_iter: int, chunk: int):
        # min_frame_errors above the budget: every point runs its full
        # budget; one worker whatever the environment asks for
        return simulation.CampaignConfig(
            max_iter=max_iter, min_frame_errors=frames + 1, max_frames=frames,
            chunk_frames=chunk, seed=self.seed,
            random_codewords=self.random_codewords, workers=1)

    def point(self) -> None:
        cfg = self.config(self.point_frames, MAX_ITER, self.chunk_frames)
        self.outputs["point"] = simulation.run_point(
            self.code, self.ebn0_db, self.rate, cfg)

    def task_scale(self, op: str) -> float:
        """Factor from the point's wall time to its share of ``task_s``.

        A frame that fails runs all 500 iterations, about 25 times the
        work of one that converges, so the point's wall time follows how
        many frames of a seed fail. ``task_s`` counts the point at
        ``ref_iter`` iterations per frame: its wall time divided by the
        iterations the seed's frames took, times the reference. The
        iterations are exact for a seed and reported as ``mean_iter``."""
        if op != "run_point":
            return 1.0
        return self.ref_iter / self.outputs["point"].mean_iterations

    def random_info(self, code, frames: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        groups = code.var_groups[: code.n_info]
        return np.stack([rng.integers(0, groups) for _ in range(frames)])

    def codes(self) -> dict:
        """Codes whose outputs are checked, by name."""
        return {"code": self.code}

    def checks(self, decodes: list) -> list[tuple[str, bool, str]]:
        out = []
        for key, code in self.codes().items():
            try:
                code.validate()
                out.append((f"{key}_validates", True, ""))
            except construction.ConstructionError as exc:
                out.append((f"{key}_validates", False, str(exc)))
            # fingerprint of the code as save_code writes it; reported,
            # not gated
            path = os.path.join(self.out_dir, f"{self.name}-s{self.seed}-{key}.alist")
            construction.save_code(code, path)
            self.outputs[f"{key}_sha256"] = file_sha256(path)
            os.remove(path)

            info = self.random_info(code, 8)
            words = codec.encode(code, info)
            ok = (np.array_equal(words[:, : code.n_info], info)
                  and not codec.syndrome(code, words).any())
            out.append((f"{key}_encoded_words_have_zero_syndrome", ok, "8 random words"))

        bad = converged_unsound(decodes)
        out.append(("converged_frames_have_zero_syndrome", bad == 0,
                    f"{bad} unsound frames"))

        cfg = self.config(2, 2, 2)
        a = simulation.run_point(self.code, self.ebn0_db, self.rate, cfg)
        b = simulation.run_point(self.code, self.ebn0_db, self.rate, cfg)
        out.append(("same_seed_same_totals", a == b, "2-frame point run twice"))
        return out


class CampaignR12(Campaign):
    """PEG build of the binary rate-1/2 fixture, then its FER point with
    all-zero codewords on the paper's 3008-bit code."""

    name = "campaign_r12"
    fixture = "r12_binary_irregular"
    refused = "r12_hybrid_g8g2"
    build_bits = 1024   # a length at which r12_hybrid_g8g2 is refused today
    # build_code(r12_binary_irregular, 3008, seed=1) written by save_code;
    # building it takes about 60 s, too long for one run
    alist = os.path.join("perfbench", "codes", "r12_binary_irregular_3008_seed1.alist")
    chunk_frames = 64
    point_frames = 32
    ref_iter = 20

    def setup(self) -> None:
        super().setup()
        self.ens_refused = Ensemble.load(fixture_path(self.refused))
        self.code = construction.load_code(os.path.join(self.root, self.alist))

    def task(self) -> list:
        def build():
            self.built = construction.build_code(self.ens, self.build_bits, seed=BUILD_SEED)
        return [("build_code", build), ("run_point", self.point)]

    def codes(self) -> dict:
        return {"code": self.code, "built": self.built}

    def probe(self) -> dict:
        # the hybrid fixture at the build length; untimed, and a refusal
        # is a count rather than a failed operation
        try:
            construction.build_code(self.ens_refused, self.build_bits, seed=BUILD_SEED)
            return {"refused_builds": 0, "refusal": ""}
        except construction.ConstructionError as exc:
            return {"refused_builds": 1, "refusal": f"{self.refused}: {exc}"}


class CampaignR16(Campaign):
    """Shipped rate-1/6 hybrid code, random codewords, G(256) checks."""

    name = "campaign_r16_hybrid"
    fixture = "r16_hybrid_g256g16g8"
    alist = os.path.join("fer_results", "codes", "r16_hybrid_g256g16g8_6144.alist")
    random_codewords = True
    chunk_frames = 16
    point_frames = 4
    ref_iter = 26

    def setup(self) -> None:
        super().setup()
        self.code = construction.load_code(os.path.join(self.root, self.alist))

    def task(self) -> list:
        return [("run_point", self.point)]


WORKLOADS = {w.name: w for w in (Design, CampaignR12, CampaignR16)}
