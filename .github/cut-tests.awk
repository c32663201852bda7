# Print a Rust source file up to its test module: through the first
# column-0 `#[cfg(test)]` whose next line opens a `mod`, that line
# excluded. A test-only `use` or helper above it is kept. CI's lint steps
# read library code through this cut: `awk -f .github/cut-tests.awk <file>`.
/^#\[cfg\(test\)\]$/ { t = NR; print; next }
t && NR == t + 1 && /^(pub(\(crate\))? )?mod / { exit }
{ print }
