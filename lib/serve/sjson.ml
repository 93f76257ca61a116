include Safara_json.Sjson
