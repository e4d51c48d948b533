"""The traffic meter equals the wire on the masked-input upload.

Each survivor's MaskedInputCollection response is one RESPONSE frame:

    frame header (8) + payload version (1) + codec tag (1)
    + body length (4) + MaskedInput header (sender 8, bits 1, d 4)
    + ⌈d·b/8⌉ packed bytes

so the measured upload is ``SecAggConfig.vector_bytes`` (what
``TrafficMeter`` books) plus a fixed 27-byte header, and at the paper's
b = 20 it is the perf model's ``bytes_per_element · d`` plus that header.
"""

import math

import numpy as np
import pytest

from repro.engine import Channel, RoundEngine, SerializingTransport, Transport
from repro.engine.core import run_sync
from repro.pipeline.perf_model import CostModelParams
from repro.secagg.codec import MASKED_INPUT_HEADER
from repro.secagg.driver import arun_secagg_round, run_secagg_round_reference
from repro.secagg.types import STAGE_MASKED_INPUT, SecAggConfig
from repro.wire import FRAME_OVERHEAD

#: Documented per-upload header: frame, version, tag, body length, and
#: the MaskedInput header.
MASKED_UPLOAD_HEADER = FRAME_OVERHEAD + 1 + 1 + 4 + MASKED_INPUT_HEADER

N_CLIENTS = 4


class _Recording(Transport):
    """Records every :class:`Delivery` the wrapped transport returns."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self.deliveries = []

    def connect(self, clients):
        inner, log = self.inner.connect(clients), self.deliveries

        class _Channel(Channel):
            async def request(self, client_id, op, payload):
                delivery = await inner.request(client_id, op, payload)
                log.append(delivery)
                return delivery

            async def aclose(self):
                await inner.aclose()

        return _Channel()


def _measure(dimension: int, bits: int):
    config = SecAggConfig(
        threshold=3, bits=bits, dimension=dimension, dh_group="modp512"
    )
    rng = np.random.default_rng(dimension * 64 + bits)
    inputs = {
        u: rng.integers(0, config.modulus, size=dimension, dtype=np.int64)
        for u in range(1, N_CLIENTS + 1)
    }
    transport = _Recording(SerializingTransport())
    result = run_sync(
        arun_secagg_round(config, inputs, engine=RoundEngine(transport=transport))
    )
    uploads = {
        d.client_id: d.up_nbytes
        for d in transport.deliveries
        if d.op == "masked_input"
    }
    return config, inputs, result, uploads


def test_header_is_27_bytes():
    assert MASKED_UPLOAD_HEADER == 27


@pytest.mark.parametrize(
    "dimension, bits",
    [(16, 20), (1000, 20), (37, 20), (7, 3), (33, 13), (64, 62), (5, 1)],
)
def test_measured_upload_is_vector_bytes_plus_header(dimension, bits):
    config, inputs, result, uploads = _measure(dimension, bits)
    assert config.vector_bytes == math.ceil(dimension * bits / 8)
    assert sorted(uploads) == sorted(inputs)
    assert set(uploads.values()) == {config.vector_bytes + MASKED_UPLOAD_HEADER}
    # The meter books exactly the packed bytes for each upload, on the
    # engine path and on the retained reference driver alike.
    booked = result.traffic.up_bytes[STAGE_MASKED_INPUT]
    assert booked == N_CLIENTS * config.vector_bytes
    reference = run_secagg_round_reference(config, inputs)
    assert reference.traffic.up_bytes[STAGE_MASKED_INPUT] == booked
    np.testing.assert_array_equal(result.aggregate, reference.aggregate)


@pytest.mark.parametrize("dimension", [16, 1000, 4096])
def test_b20_upload_matches_the_perf_model(dimension):
    """At b = 20 the wire ships the perf model's 2.5 B/element."""
    _, _, _, uploads = _measure(dimension, 20)
    modeled = CostModelParams().bytes_per_element * dimension
    assert set(uploads.values()) == {modeled + MASKED_UPLOAD_HEADER}
