"""Golden per-pair result digests for the harness equivalence tests.

Each value is :func:`repro.analysis.runtime.result_digest` of one pair's
:class:`~repro.core.results.WorkloadResult`, keyed
``"configuration/workload"``.  They were recorded with the in-process
matrix runner and the loop-based coherence sweep that the single
``run_pairs`` path replaced, so a test comparing today's results against
them checks that every ``jobs`` value still reproduces those numbers bit
for bit.  The address-level, trace-file and XBar/OCM open-loop pairs were
recorded before packed columns became the only trace representation, when
those pairs still went through record-object traces or readers.  The
faulted pairs and the telemetry artifact hashes (:data:`TELEMETRY`, sha256
of the files themselves) were recorded before the per-miss host-cost edits
to the calendar, the result tuples and the token arbiter, and the
window-gated open-loop pair (:data:`POISSON_GATED`) before the completion
ring replaced the per-record completion list.  The scenarios and sweeps
they describe are built by the helpers below; change one and its digests
must be re-recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Dict, Iterable, Tuple

from repro.analysis.runtime import result_digest
from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec
from repro.coherence import CoherenceConfig, SharingProfile
from repro.core.results import WorkloadResult
from repro.faults import FaultSpec
from repro.obs import ObservabilitySpec
from repro.trace.io import write_trace, write_trace_binary
from repro.trace.synthetic import uniform_workload


def digests(results: Iterable[WorkloadResult]) -> Dict[str, str]:
    """``"configuration/workload" -> digest`` for ``results``."""
    return {
        f"{result.configuration}/{result.workload}": result_digest(result)
        for result in results
    }


#: The six synthetic workloads, in the paper's plot order.
SYNTHETIC_WORKLOADS = (
    "Uniform", "Hot Spot", "Tornado", "Transpose", "Bit Reversal", "Neighbor",
)


def small_quick_scenario() -> Scenario:
    """The default scenario (all 85 pairs at the quick tier) shrunk to
    test-suite request counts."""
    return Scenario(
        scale=ScaleSpec(
            synthetic_requests=600,
            splash_min_requests=400,
            splash_max_requests=700,
        ),
    )


def tiny_scenario() -> Scenario:
    """Two configurations x the six synthetic workloads at 800 requests."""
    return Scenario(
        system=SystemSpec(configurations=("LMesh/ECM", "XBar/OCM")),
        workloads=tuple(WorkloadSpec(name=name) for name in SYNTHETIC_WORKLOADS),
        scale=ScaleSpec(synthetic_requests=800),
    )


def coherent_uniform_scenario() -> Scenario:
    """One coherence-enabled pair: XBar/OCM x Uniform at 600 requests."""
    return Scenario(
        system=SystemSpec(configurations=("XBar/OCM",)),
        workloads=(WorkloadSpec(name="Uniform"),),
        scale=ScaleSpec(synthetic_requests=600),
        coherence=CoherenceConfig(),
    )


def _one_configuration(configuration: str, *workloads: WorkloadSpec) -> Scenario:
    return Scenario(
        system=SystemSpec(configurations=(configuration,)),
        workloads=workloads,
        scale=ScaleSpec(seed=1),
    )


def addr_streaming_scenario() -> Scenario:
    """XBar/OCM x ``addr-streaming`` at 1,500 requests: the cache
    hierarchy's miss stream, cut to its first 1,500 records."""
    return _one_configuration(
        "XBar/OCM", WorkloadSpec(name="addr-streaming", num_requests=1_500)
    )


def write_trace_files(directory: Path) -> Tuple[Path, Path]:
    """A seed-7, 1,000-request Uniform trace written as text and binary."""
    trace = uniform_workload().generate_packed(seed=7, num_requests=1_000)
    text_path = Path(directory) / "uniform.trace"
    binary_path = Path(directory) / "uniform.trace.bin"
    write_trace(trace, text_path)
    write_trace_binary(trace, binary_path)
    return text_path, binary_path


def trace_file_scenario(text_path: Path, binary_path: Path) -> Scenario:
    """LMesh/ECM x the two ``trace-file`` workloads of
    :func:`write_trace_files` (window 8)."""
    return _one_configuration(
        "LMesh/ECM",
        *(
            WorkloadSpec(
                name="trace-file",
                params={"path": str(path), "name": name, "window": 8},
            )
            for name, path in (("text-file", text_path), ("binary-file", binary_path))
        ),
    )


def poisson_uniform_scenario() -> Scenario:
    """XBar/OCM x open-loop (Poisson, 2e10 req/s) Uniform at 3,000
    requests, window 8."""
    return _one_configuration(
        "XBar/OCM",
        WorkloadSpec(
            name="Uniform",
            params={
                "arrival": {"process": "poisson", "rate_rps": 2e10},
                "window": 8,
            },
            num_requests=3_000,
        ),
    )


def poisson_gated_scenario() -> Scenario:
    """LMesh/ECM x open-loop (Poisson, 2e10 req/s) Uniform at 3,000
    requests, window 2: the issue window holds 389 of the 3,000 misses
    back past their arrival."""
    return _one_configuration(
        "LMesh/ECM",
        WorkloadSpec(
            name="Uniform",
            params={
                "arrival": {"process": "poisson", "rate_rps": 2e10},
                "window": 2,
            },
            num_requests=3_000,
        ),
    )


def hotspot_overflow_scenario() -> Scenario:
    """LMesh/ECM x Hot Spot at 4,000 requests: every thread targets one
    home, so that controller books up to 3,408 departures against a queue
    capacity of 64 and almost every access waits for admission."""
    return _one_configuration(
        "LMesh/ECM", WorkloadSpec(name="Hot Spot", num_requests=4_000)
    )


def coherent_mshr_overflow_scenario() -> Scenario:
    """Coherent LMesh/ECM x Uniform at 12,000 requests, half the misses
    shared and half of those writes, default :class:`CoherenceConfig`:
    hubs book more MSHR releases than they have tokens (the pool's
    overflow admission), which no smaller pinned pair reaches."""
    return dataclasses.replace(
        _one_configuration(
            "LMesh/ECM",
            WorkloadSpec(
                name="Uniform",
                sharing=SharingProfile(fraction=0.5, write_fraction=0.5),
                num_requests=12_000,
            ),
        ),
        coherence=CoherenceConfig(),
    )


#: Every fault model at once: detuned rings, lost tokens, degraded mesh
#: links and DRAM timeouts.
ALL_FAULTS = FaultSpec(
    seed=3,
    ring_detuning_fraction=0.1,
    token_loss_rate=0.05,
    dead_link_fraction=0.1,
    dram_timeout_rate=0.02,
)


def faulted_scenario() -> Scenario:
    """XBar/OCM, LMesh/ECM and HMesh/OCM x Uniform and Hot Spot at 600
    requests under :data:`ALL_FAULTS`."""
    return Scenario(
        system=SystemSpec(configurations=("XBar/OCM", "LMesh/ECM", "HMesh/OCM")),
        workloads=(WorkloadSpec(name="Uniform"), WorkloadSpec(name="Hot Spot")),
        scale=ScaleSpec(synthetic_requests=600),
        faults=ALL_FAULTS,
    )


def faulted_coherent_scenario() -> Scenario:
    """Coherent Uniform, half its misses shared, on XBar/OCM (broadcast
    bus) and LMesh/ECM (unicast fan-out) at 600 requests under
    :data:`ALL_FAULTS`."""
    return Scenario(
        system=SystemSpec(configurations=("XBar/OCM", "LMesh/ECM")),
        workloads=(
            WorkloadSpec(name="Uniform", sharing=SharingProfile(fraction=0.5)),
        ),
        scale=ScaleSpec(synthetic_requests=600),
        coherence=CoherenceConfig(),
        faults=ALL_FAULTS,
    )


#: The artifact files :func:`telemetry_scenario` writes, by kind.
TELEMETRY_FILES = {"metrics": "m.csv", "timeline": "t.json", "samples": "s.json"}


def telemetry_scenario(configuration: str, directory: Path) -> Scenario:
    """One Uniform pair at 400 requests under :data:`ALL_FAULTS` (so the
    timeline carries fault instants) with every telemetry sink on, writing
    :data:`TELEMETRY_FILES` into ``directory``."""
    directory = Path(directory)
    return dataclasses.replace(
        _one_configuration(
            configuration, WorkloadSpec(name="Uniform", num_requests=400)
        ),
        faults=ALL_FAULTS,
        observability=ObservabilitySpec(
            metrics_path=str(directory / TELEMETRY_FILES["metrics"]),
            timeline_path=str(directory / TELEMETRY_FILES["timeline"]),
            samples_path=str(directory / TELEMETRY_FILES["samples"]),
        ),
    )


def file_digests(directory: Path) -> Dict[str, str]:
    """``kind -> sha256`` of the :data:`TELEMETRY_FILES` in ``directory``."""
    return {
        kind: hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
        for kind, name in TELEMETRY_FILES.items()
    }


#: :func:`small_quick_scenario`, all 85 pairs.
SMALL_QUICK_MATRIX = {
    "LMesh/ECM/Uniform": "368a822fd367703cbcbd9eb6454c68ee9aaea69ae671eaca95defcc8d3ea57b6",
    "HMesh/ECM/Uniform": "b6e4dd6cc4e5d2893401f06c874f85f3e706919ac3f635aaa4c97a2beb4f88d8",
    "LMesh/OCM/Uniform": "35aaae9c46b1abecfd824b80469c2081f0e9117475e5f91fa1d4bc52c74ae2a6",
    "HMesh/OCM/Uniform": "75c2b18eca4f0b4b4608895d033203bcab1d5377f5f811a79dec9c003fee24de",
    "XBar/OCM/Uniform": "0e4df86ab90d61cb6a6dca1999fc5e8badf8e37c0a76b9a74c0e11897c3123d3",
    "LMesh/ECM/Hot Spot": "ce36a4995f403d37ccb50f62e976d1e283b1eeb825018470ea7c94b452c722aa",
    "HMesh/ECM/Hot Spot": "f3996753096778d7b7c9ad72a7f72d5cb52a2a02f5faaa5f4d30e04d49dc9a4b",
    "LMesh/OCM/Hot Spot": "45040a79f085c5e4294a550a3079c37827f1b4812a836756e50f301619059327",
    "HMesh/OCM/Hot Spot": "fafdae15da14764b378cbd5fa7d04864f8d1ffd8cb3b433821665592491e15b3",
    "XBar/OCM/Hot Spot": "d996cb34fe6d0ed1740b1cba0572314aa2d2884929bf128036ba81f43a0fbefc",
    "LMesh/ECM/Tornado": "ab61d63e02d3dbca7a7422e055cc8cfd585cd3653758f1e4d45c4c7ae973a57d",
    "HMesh/ECM/Tornado": "509fd8ec8b38047d0a9f3eff25f5a53bb9272be24b90924ccddb002f3ba6d280",
    "LMesh/OCM/Tornado": "fddb3d5550c8a75f59e8cf3008c7d415cd121761ef0239db0d47e8e3edf59b34",
    "HMesh/OCM/Tornado": "27835f778ee4cb772cd9158eea74f8973d1b5cfe286e7d4ab5c1758628b12000",
    "XBar/OCM/Tornado": "3ff60982b2a51deb4d7cc0b7e755c952204bf86567677a559708a3592317f15e",
    "LMesh/ECM/Transpose": "f70e679a8ed20111c9c3b9cbb1132b71ee6e6e8df3867eed05f920c777d6e154",
    "HMesh/ECM/Transpose": "c21a0013410efd4c73b8d6b9c86254b3a61e3b6cac1453861fce2a4b92f3b61b",
    "LMesh/OCM/Transpose": "90592d7ad5dc08c14fa508f06f57777b23527c9d90078a326c4120a5fc2f2208",
    "HMesh/OCM/Transpose": "3cc29fd97d28c75592d10eb32ef5f8530c46d5fd289fd240ca91b4c815ed824b",
    "XBar/OCM/Transpose": "e89c7ce053d626f98baed546938f0810b302285a58431870eb10ec6845ffec06",
    "LMesh/ECM/Bit Reversal": "5d36988541d7355f52bc13057f92e06d1fee9797003a1b7201bb01e73ae0fb26",
    "HMesh/ECM/Bit Reversal": "6be9f577fff0392a353ddf29bcd0e29bc3beaf27b22c0ee3af1d2391a5764532",
    "LMesh/OCM/Bit Reversal": "b65d9b99f415ed86b50f744bd90996032c1815ab17fec74bc330d8a6a3db349a",
    "HMesh/OCM/Bit Reversal": "5da2ebc621a4184309ceafd17af8ee555ea0c5f6f87cb3efea5da40077c83eb7",
    "XBar/OCM/Bit Reversal": "54144ee24bb3d56dfb856bc57b307eab71a6657d8fbe53f6893cc2d8cebde417",
    "LMesh/ECM/Neighbor": "2d17a7fce5aa3964b29e9bd065cd1dffdb0c4933ef946a978e618c294a0108ed",
    "HMesh/ECM/Neighbor": "a3f9a90975aaa98180a7a730beeb06f076d86a15aea55c2f90c54b63c028f455",
    "LMesh/OCM/Neighbor": "1728342d4846ff19e8ae82d59e6c5332367457ade6c151185508867e2b13967e",
    "HMesh/OCM/Neighbor": "22e8e2a2acd1fad49d47ac2148efd632cb785d95bef470972bb11bbd7ab20727",
    "XBar/OCM/Neighbor": "6b6bfc5d562d01fc56e020d77a3cc2d96165e3873fa0d751808c2bf8b0a336a8",
    "LMesh/ECM/Barnes": "8f25d3cb54721d255a949eaff34f900d516072c007797833fb5afbbe23697457",
    "HMesh/ECM/Barnes": "fb2e592b9aafd44446db7877c53fa114e3deba66b6316b4c24535e46f935d8f0",
    "LMesh/OCM/Barnes": "eb9efb0fdc4ca45b6fe4ed49c5af955e0d9cf178f1a39380dfa5dc14525ccfa9",
    "HMesh/OCM/Barnes": "8f2b80f081ed4d81e5c636bdf614dae5b9b02d0125b28a08288f869534456a0e",
    "XBar/OCM/Barnes": "9b48423c14cc594d50011fa77dbee7a10fcc723d5dbc64b4813c93c2349cd703",
    "LMesh/ECM/Cholesky": "8e08283e7b3bbebb06ea186888f39417b232660ad954ed4c842b5e0e92b9afec",
    "HMesh/ECM/Cholesky": "5d5c6f6ac9738f9cd3cefb97b5c4140effdbf6f15a70474b215429437368a95e",
    "LMesh/OCM/Cholesky": "b03be3dfda79ada56625de2d0de15cd4b343330be9cec934e05c10da8092ed30",
    "HMesh/OCM/Cholesky": "02c3a48acbdb7594574bd7e48559ed7705628e897f465dc53f357d6d4bce1547",
    "XBar/OCM/Cholesky": "70bfc053079e2a0ae26dfbfb9e89e45b220e0a696cf8f9669709bbbaef9fd56f",
    "LMesh/ECM/FFT": "d808f8ef40ed3ce01bc834e855a854f3bd0d3d050c92eb583619e9950e567b21",
    "HMesh/ECM/FFT": "b47a7ef3704dbb4a2bfdf8b97ba65c90cc584f22248e2e7e9dc5b34fd5c97f00",
    "LMesh/OCM/FFT": "5c4cb529775ae536a696becde0cc5bb101a5a8b7127818230e706207b850cf52",
    "HMesh/OCM/FFT": "1834578e4c0dd8b2e5eb1242a16e67880f9b3a15595a72a36861b4d5c628b68c",
    "XBar/OCM/FFT": "4b9de5539a17c14b16509371b6807e76b597a4bb3555def3f4aad66d20fd7624",
    "LMesh/ECM/FMM": "61e3ee4255500e389ed09b3d59ae118bef6d3c60770ed2113be5aafe706e63e0",
    "HMesh/ECM/FMM": "2820f2681c5ddc7e466ef2d55ae667b6fbda2726bdafbfebf448f1550a247215",
    "LMesh/OCM/FMM": "31918a42fd1baec583dec20dbd2952592ea516c2bd52f24bc3e5c9efb9bbb11e",
    "HMesh/OCM/FMM": "0bfb7cdef79b49993fc9a0f9d03576647f52e63d5451b50c477d408b597d2275",
    "XBar/OCM/FMM": "b653c64ef7acaab452d31be4490efbd092fc573371ccf1de2260e47900edce80",
    "LMesh/ECM/LU": "361419c59afe5ebeda3fa50df435dd1d80cce3b748f30ff23ba52e13ca9c67f5",
    "HMesh/ECM/LU": "852adc1ce6cfc526f8adb42b7f80ee57ad60159a78cb5edc283037d4d913ee2f",
    "LMesh/OCM/LU": "5330d3b7394edab36027b91d81a1a905b0634530aeec587eb9e16463b15a6d16",
    "HMesh/OCM/LU": "fe2671632846c16ab9ab80b4a04c52e1c023b6423aa0c6ba19347e51d3bf8a8f",
    "XBar/OCM/LU": "65283e6cd190a2a4f36ac21ecea41ee1a879a9f71e11f0fdd4ea926125781ae5",
    "LMesh/ECM/Ocean": "573df652fd30d371af9896c0326272bdff836b02accb8736c8366f0d8f098a18",
    "HMesh/ECM/Ocean": "5d50504d142c0eb6acdf24fecd4db23fc9b45e71429deef51b562e31719d7085",
    "LMesh/OCM/Ocean": "09b5f164695ea31857a607ac3a57575160d2ac6e9c3a3d6668a4ad2b2cfcb84b",
    "HMesh/OCM/Ocean": "ca9f05ddec73bc2ca7067f34f03fb7d3d3a714b74a1c9a884a27d6de6a64787e",
    "XBar/OCM/Ocean": "abf0bcc7b3f9ec26d647e73f603bdb42289be58f670c35d282163342c29597b1",
    "LMesh/ECM/Radiosity": "eeabb695356c9dbb1eb52ed53d28094011840925d0038081f2d67425c8e44a08",
    "HMesh/ECM/Radiosity": "8e0b79a258887e2cff430e7b1fc7e14307d1e30c4c8de0cb5f794246882addd0",
    "LMesh/OCM/Radiosity": "2869be5d60fe2053c1c7c18ad8e1b1883eb1991cd4df3cd13fd5414e589163b9",
    "HMesh/OCM/Radiosity": "78506d652cc2cea0d9f0084f4c767885c8912f15f582b32c2fbdf3967dae64f5",
    "XBar/OCM/Radiosity": "fa53107c5d50b74eba41b47a3ce78550922f9ab07b353ef9e959f43e8810499d",
    "LMesh/ECM/Radix": "622728b520c4e7439ff41be3a6a78e1a4d9ce93ccf7c665684d1d00cf503398a",
    "HMesh/ECM/Radix": "daf0a3e5971838bac2210151cacbae59e441f9529735b63e046e1106ecc7e646",
    "LMesh/OCM/Radix": "2bf8e508197cb219e90a54901e6db8bf53752b8b1a2bd807b0eca9c4ce1f9737",
    "HMesh/OCM/Radix": "a3751d96b71961fc6047b51a1aa974d5cf7cb9f39cfe3c8bacd8637fd389fceb",
    "XBar/OCM/Radix": "0c9f1e2a12071214d809961595105a4ab7e0998be92ada9065e54fc26deff363",
    "LMesh/ECM/Raytrace": "d2e6d4c5ccb780f45b27671fe39daa158d14a02a6afa496ce546892a3faec09a",
    "HMesh/ECM/Raytrace": "1b248dab2d129300fb8baf7e51e110f505659831b47d585292b84c65e283e0c2",
    "LMesh/OCM/Raytrace": "0ebe8036a01aef41ee0fa094608c96d5be1fadfd89dd7204f8c6a40224cb2525",
    "HMesh/OCM/Raytrace": "e31a4d76733924d587bbbe71e95d4150f05986683bc8656eeb42831cb151dc1c",
    "XBar/OCM/Raytrace": "5f9e2294b5c1d69d07537952e01fc86064de6275ec0896e3451272bd0fa39486",
    "LMesh/ECM/Volrend": "98b61191f22ddaa8d55cb3797374695b4345ba80357f75e138ca8ffac9138be6",
    "HMesh/ECM/Volrend": "c9e2f5d7cca7e34d11faf26884f8a88cddc1ffeeff222285b193ab30f3433f4e",
    "LMesh/OCM/Volrend": "5c5716a71cd9fdf899c288b0dee63c296856b9576db64443ba121167b2b8be15",
    "HMesh/OCM/Volrend": "518aa65867fa79b601a4ae480fe665930fe5d10e994bf811fabfc80ca4bfb1ea",
    "XBar/OCM/Volrend": "59e47ee7bca08957669db948fcc7d9ce7b15a53ffcee86345e7ad2ae51bf2309",
    "LMesh/ECM/Water-Sp": "d7c8748facf087722a2c020539d515a7b36d65afebe8b6ebbab17403be3b856e",
    "HMesh/ECM/Water-Sp": "9fa4d1cc1f343bbbfecbc13e9ab76279f5f2b451122dc3b4624bfe872373f90e",
    "LMesh/OCM/Water-Sp": "9fa8733e13254041d8170881e2d47ec8eca57dabd77bbc1180c69e7552f016b2",
    "HMesh/OCM/Water-Sp": "93ea62b65a0159782032195a18122e56bfec215f8709e93fdf143cfca436ed5d",
    "XBar/OCM/Water-Sp": "46f5686b43358a963f4a25ebe5f3f3c18c5079d7f70eb37effbb5bd9b71507b0",
}

#: :func:`tiny_scenario`.
TINY_MATRIX = {
    "LMesh/ECM/Uniform": "4f280c8586f8d97ce772849ba0753f44f4543c110c014e01468cc384d0917182",
    "XBar/OCM/Uniform": "632ece94ad13978d17c04fd0f7b06b96bd79498a9097d47e23a7ffdb0d82e415",
    "LMesh/ECM/Hot Spot": "c675d4b645dc50ccd29fe27f2015647978b2fa8d8586f988a3bb89f6e6cfc32b",
    "XBar/OCM/Hot Spot": "2ee64588c60402b02a0941531bb52d76c46373215f998a6213f445fc0ca5aa84",
    "LMesh/ECM/Tornado": "80f2fa21d9f96db711fa21739fadde3e807035e0e3f4ec90b70c802ee72039d6",
    "XBar/OCM/Tornado": "467cdc43f4176235eec19e999ad88bb7a0741b8e86b3f33163eb20d658d06461",
    "LMesh/ECM/Transpose": "a2a8acb0e7f8d7afe325149c738a41461906230f910e068330ff5085701df30a",
    "XBar/OCM/Transpose": "8bf0775fb07248f06b6bc4c1b8322b4c358e887a94535d23691ac7723e235287",
    "LMesh/ECM/Bit Reversal": "34f67e8d0cd58d23e8120b7ba65165d46bd06627e91e0424df466dc4e94230cf",
    "XBar/OCM/Bit Reversal": "c8aa66f529b76fd025f2832c63bbf975eb7633b4c968e15d0140e24c744564ba",
    "LMesh/ECM/Neighbor": "291ea663284db8f8a58c72606f6bff43206a7deea6d47b3ece3fe659cd47e386",
    "XBar/OCM/Neighbor": "1db8873d8f6519758dd597d22cd9fc11d61becddcbcda27beffe148d82c12226",
}

#: :func:`coherent_uniform_scenario`.
COHERENT_UNIFORM = {
    "XBar/OCM/Uniform": "4e0450ef21dc2bbfb259a7abdf9534bb7be42d0de57b1e24e3869efb21658f8c",
}

#: ``coherence_sweep_spec(fractions=(0.0, 0.3),
#: configurations=("LMesh/ECM", "XBar/OCM"), num_requests=1_000)``.
SWEEP_1000 = {
    "LMesh/ECM/Uniform s=0": "e035c37f0295fd9a94497a15f671c8b524035df98111a21f66a49e6978cc2f40",
    "XBar/OCM/Uniform s=0": "287b13608d15fa7160a9633b82a45668906490a88e1c0fe6688f61cdd31372c3",
    "LMesh/ECM/Uniform s=0.3": "d8a1d3d6162f76717caf06fbdad8cedc75f793750dd7b5774dd712632802b721",
    "XBar/OCM/Uniform s=0.3": "058a7e58c00cead7ebac97e954528f64b5d70414475ffaf9ed8155409fae9315",
}

#: The same grid at ``num_requests=2_000``.
SWEEP_2000 = {
    "LMesh/ECM/Uniform s=0": "32916cc0f4eef70d5a73b785467cb1c33184b46cf2ac70aa1c93a3d3fb2ee895",
    "XBar/OCM/Uniform s=0": "c410f2858758840cf2eeadabe300259fb76b790371ecb1bceecb62b1ad5c7c88",
    "LMesh/ECM/Uniform s=0.3": "f28b39c4d0b5a57641d85013769234eab55a117829331de83f01833267b0251c",
    "XBar/OCM/Uniform s=0.3": "7bfe8591c986f1f63c25244fbcaff208336b19db4ae7acef27acd3b622c04ee3",
}

#: ``coherence_sweep_spec(fractions=(0.2,),
#: configurations=("XBar/OCM", "LMesh/ECM"), num_requests=1_500)``.
SWEEP_1500 = {
    "XBar/OCM/Uniform s=0.2": "6011ae9b281c378db8d11095243ea3b4a0d1855607d7236dae494b6cc750c20a",
    "LMesh/ECM/Uniform s=0.2": "9a30a3f2cba6093e53e9a9479cbb67ade90978aa103f59fd31b8cc125018012e",
}

#: :func:`addr_streaming_scenario`.
ADDR_STREAMING = {
    "XBar/OCM/AddressStreaming": "e27144611d38eb092aaaca148344cbae513a93be581ddeb840d738731c464e3b",
}

#: :func:`trace_file_scenario` over :func:`write_trace_files`.
TRACE_FILES = {
    "LMesh/ECM/text-file": "ef50779eee22292ff4be01e6c677e1adc8aa79e36d0e69cf518e9f778f456417",
    "LMesh/ECM/binary-file": "32554847acb4e3a00db7a6ae99b5a0d90bb2515122553cffc2bfea44c7986d8f",
}

#: :func:`poisson_uniform_scenario`.
POISSON_UNIFORM = {
    "XBar/OCM/Uniform": "6244c0641bbe88ee636a7e5a59448b094594716ffc4816f8bbca41324fa00cb9",
}

#: :func:`poisson_gated_scenario`.
POISSON_GATED = {
    "LMesh/ECM/Uniform": "428b01ff02e0d419a649ee8b4b7a810def8f0bb2a1588e5e57f1d8f69553db16",
}

#: :func:`hotspot_overflow_scenario`.
HOTSPOT_OVERFLOW = {
    "LMesh/ECM/Hot Spot": "69892ad1ad819eae75812419fde4a650904610078313e501ac97b075d8c3236c",
}

#: :func:`coherent_mshr_overflow_scenario`.
COHERENT_MSHR_OVERFLOW = {
    "LMesh/ECM/Uniform": "4bda940f181996065eedda6b7c72ea2a20fc6d2163b929eb75910720a4ec5f55",
}

#: :func:`faulted_scenario`.
FAULTED = {
    "XBar/OCM/Uniform": "49e462f0c71ea22adeca307d3fadb210ea2248d40d1890ac38abe9b43464a6b5",
    "LMesh/ECM/Uniform": "31b7c9d5787acad2ff332aa8c8b639b49e902d7c48997b885831088975292c01",
    "HMesh/OCM/Uniform": "d48b39029f0c129898aa08c3e484b964744f2ac954102ae2a9405d6195ce6fab",
    "XBar/OCM/Hot Spot": "5908ddee7aaa890ed944236f089b4602c642f63c49d9f1ac7169506396254df6",
    "LMesh/ECM/Hot Spot": "38c10d372c8fae78b48b38e56a98e07b9f9c9a53234d40757ec4f13d3bb3cf9a",
    "HMesh/OCM/Hot Spot": "91061e9076f41f5ea54eea989be0e3abf135c392c7fc3df866a3554dc314853d",
}

#: :func:`faulted_coherent_scenario`.
FAULTED_COHERENT = {
    "XBar/OCM/Uniform": "4c269cc098b692eb2cf04d12e4828edda14317775ba86de21c697eb6a3d0c511",
    "LMesh/ECM/Uniform": "ae58af555df18ae5dd6bbfc8755ce2e422d31e83c262ea567af23d06f9f6bd93",
}

#: :func:`file_digests` of :func:`telemetry_scenario`, by configuration.
TELEMETRY = {
    "XBar/OCM": {
        "metrics": "467f9dc9385ff58293216f37c7fc98f6ee854cba96a93318e334a2cd9349690e",
        "timeline": "950b64963ad2c3f497570c1a3b7e0081e58f725cbe6aa667efe346bc17e39590",
        "samples": "d7bf208a63a1084e61c426d5228882809e7352bdbc81c80e640bcc70e831046f",
    },
    "LMesh/ECM": {
        "metrics": "aa5265041bea989921712d45ddc4eda90f59fc279a8e18f6e78fee157579d07c",
        "timeline": "c6ad02583120686b6f5475d1807b04b3278b5efd1bf22bbf9a3a16f60bcf1957",
        "samples": "2193ac5d5f34b71b8a3d260334e27673fee66a2437efb35b9cbc286eb5572ebe",
    },
}
