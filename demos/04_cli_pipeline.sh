#!/usr/bin/env bash
# The same pipeline driven entirely through the CLI and JSON files.
set -euo pipefail
cd "$(mktemp -d)"
echo "working in $PWD"

python3 - <<'EOF'
from tropi.serialize import (
    catalogue_to_dict, complex_to_dict, lambda_to_dict, save_json, type_to_dict,
)
from tropi.worked_example import (
    example_catalogue, example_data, example_type, quadrant,
)

save_json("complex.json", complex_to_dict(quadrant()))
save_json("lambda.json", lambda_to_dict(example_data()))
save_json("cat.json", catalogue_to_dict(example_catalogue()))
save_json("type.json", type_to_dict(example_type()))
EOF

echo "-- balance"
tropi balance --type type.json --out balanced.json

echo "-- validate / gathmann"
tropi validate --type balanced.json
tropi gathmann --type balanced.json

echo "-- smoothable (expected exit 3: not smoothable)"
tropi smoothable --type balanced.json && exit 1 || test $? -eq 3

echo "-- sensitize-for-data"
tropi sensitize-for-data --target complex.json --lambda lambda.json \
  --catalogue cat.json --out subdivision.json

echo "-- enumerate"
tropi enumerate --target complex.json --lambda lambda.json \
  --catalogue cat.json --out types/
head -c 200 types/index.json; echo

echo "-- render"
tropi render --type balanced.json --format dot --out graph.dot
head -n 5 graph.dot

echo "-- selftest"
tropi selftest
echo "pipeline done"
