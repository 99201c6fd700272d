"""Property test: anomaly detection equals a brute-force scan of the history.

Each schema puts both attributes on one grid step q in {0.5, 1, 2}, with the
angle either independent or a slave of the distance. Values are drawn in
quarter steps of q over a narrow range, so rows share buckets, quantization
meets its half-way points. Half the failures take their distance from one
success and their angle from another, so collective anomalies occur often.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from adkra.experience import SUCCESS, AttributeVector, TrainingData
from adkra.kb import AttributeSchema, AttributeSpec
from adkra.reasoner import COLLECTIVE, POINT, Anomaly, detect_collective_anomalies, detect_point_anomalies


@st.composite
def _cases(draw):
    q = draw(st.sampled_from([0.5, 1.0, 2.0]))
    coupled = draw(st.booleans())
    schema = AttributeSchema(
        (
            AttributeSpec(1, "distance", q, q, "maxdis", "mindis"),
            AttributeSpec(2, "angle", q, q, "maxangle", "minangle", master=1 if coupled else None),
        )
    )
    value = st.integers(-12, 12).map(lambda k: k * q / 4)
    rows = draw(st.lists(st.tuples(value, value), max_size=15))
    if rows and draw(st.booleans()):
        # each value seen in some success, the pair perhaps in none
        failure = (draw(st.sampled_from(rows))[0], draw(st.sampled_from(rows))[1])
    else:
        failure = draw(st.tuples(value, value))
    return schema, rows, failure


def _brute_point(schema, qrows, qvec):
    return [
        Anomaly(spec.index, spec.name, qvec[spec.index - 1], POINT)
        for spec in schema.attributes
        if all(r[spec.index - 1] != qvec[spec.index - 1] for r in qrows)
    ]


def _brute_collective(schema, qrows, qvec):
    found = []
    for spec in schema.attributes:
        m, s = spec.master, spec.index
        if m is None:
            continue
        seen_m = any(r[m - 1] == qvec[m - 1] for r in qrows)
        seen_s = any(r[s - 1] == qvec[s - 1] for r in qrows)
        seen_both = any(r[m - 1] == qvec[m - 1] and r[s - 1] == qvec[s - 1] for r in qrows)
        if seen_m and seen_s and not seen_both:
            found.append(Anomaly(s, spec.name, qvec[s - 1], COLLECTIVE, m, qvec[m - 1]))
    return found


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_detection_matches_a_scan_of_the_quantized_rows(case):
    schema, rows, failure = case
    td = TrainingData(schema)
    td.extend(AttributeVector(r, SUCCESS, i) for i, r in enumerate(rows))
    qrows = [schema.quantize_vector(r.values) for r in td.rows]
    qvec = schema.quantize_vector(failure)

    points = detect_point_anomalies(qvec, td)
    collective = detect_collective_anomalies(qvec, td)
    assert points == _brute_point(schema, qrows, qvec)
    assert collective == _brute_collective(schema, qrows, qvec)
    event(f"point {len(points)}, collective {len(collective)}")
