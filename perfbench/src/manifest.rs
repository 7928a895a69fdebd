//! Reads `BENCHMARK.json` for the self-check that every metric it names
//! is emitted under the unit it declares, and nothing else is.

use std::collections::BTreeMap;

#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            self.i += 4;
                            out.push(b'?');
                        }
                        other => out.push(other),
                    }
                }
                _ => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let k = self.string()?;
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"null" => Ok(Json::Null),
                    b"true" | b"false" => Ok(Json::Bool),
                    t if std::str::from_utf8(t)
                        .ok()
                        .and_then(|t| t.parse::<f64>().ok())
                        .is_some() =>
                    {
                        Ok(Json::Num)
                    }
                    _ => Err(format!("bad literal at byte {start}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// `name → unit` for the metric list `section` (`end_to_end` or
/// `per_layer`) of the manifest text.
pub fn metric_units(text: &str, section: &str) -> Result<BTreeMap<String, String>, String> {
    let root = P {
        s: text.as_bytes(),
        i: 0,
    }
    .value()?;
    let Some(Json::Arr(items)) = field(&root, section) else {
        return Err(format!("BENCHMARK.json has no `{section}` list"));
    };
    let mut out = BTreeMap::new();
    for it in items {
        match (field(it, "name"), field(it, "unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => {
                out.insert(n.clone(), u.clone());
            }
            _ => return Err(format!("malformed `{section}` entry: {it:?}")),
        }
    }
    Ok(out)
}
